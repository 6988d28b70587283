package coord

import (
	"fmt"

	"repro/internal/units"
)

// SetpointScheduler is the predictive T_ref adjustment of Sec. V-B: the
// fan controller's reference temperature scales linearly with the
// moving-average-predicted CPU utilization,
//
//	T_ref(k) = T_lo + (T_hi − T_lo) · û(k),
//
// so a lightly loaded server keeps a cold set-point (fan headroom against
// sudden load spikes: the spike lands on a cool die) while a busy server
// relaxes the set-point (the fan's cubic power is spent only when the
// extra headroom buys nothing — demand is already near its ceiling).
type SetpointScheduler struct {
	Lo, Hi units.Celsius
	pred   movingAverage
	last   units.Celsius
}

// NewSetpointScheduler builds a scheduler over the paper's 70–80 °C band
// with a moving-average predictor of the given window (in CPU ticks,
// following [19]).
func NewSetpointScheduler(lo, hi units.Celsius, window int) (*SetpointScheduler, error) {
	if hi <= lo {
		return nil, fmt.Errorf("coord: setpoint band [%v, %v] empty", lo, hi)
	}
	if window < 1 {
		return nil, fmt.Errorf("coord: predictor window %d < 1", window)
	}
	return &SetpointScheduler{Lo: lo, Hi: hi, pred: newMovingAverage(window), last: lo}, nil
}

// Observe feeds one utilization sample (called every CPU tick) and
// returns the scheduled reference temperature.
func (s *SetpointScheduler) Observe(u units.Utilization) units.Celsius {
	uu := units.Clamp(float64(u), 0, 1)
	uhat := units.Clamp(s.pred.update(uu), 0, 1)
	s.last = s.Lo + units.Celsius(float64(s.Hi-s.Lo)*uhat)
	return s.last
}

// Current returns the most recently scheduled reference.
func (s *SetpointScheduler) Current() units.Celsius { return s.last }

// Reset restores the initial state. The predictor clears in place, which
// keeps warm-batch policy resets allocation-free.
func (s *SetpointScheduler) Reset() {
	s.pred.reset()
	s.last = s.Lo
}

// movingAverage is the utilization predictor the paper adopts from [19]:
// the next sample is predicted as the arithmetic mean of the last n, which
// filters out the noise term in CPU utilization. Before the window fills it
// averages the samples seen so far.
type movingAverage struct {
	window []float64
	next   int
	count  int
	sum    float64
}

// newMovingAverage returns a moving average over n >= 1 samples.
func newMovingAverage(n int) movingAverage {
	return movingAverage{window: make([]float64, n)}
}

// update consumes one sample and returns the prediction for the next.
func (m *movingAverage) update(x float64) float64 {
	if m.count < len(m.window) {
		m.count++
	} else {
		m.sum -= m.window[m.next]
	}
	m.window[m.next] = x
	m.sum += x
	m.next = (m.next + 1) % len(m.window)
	return m.sum / float64(m.count)
}

// reset clears the window in place.
func (m *movingAverage) reset() {
	clear(m.window)
	m.next, m.count, m.sum = 0, 0, 0
}
