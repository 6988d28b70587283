package service

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
)

// gatedBackend holds the first Put or GetRaw (whichever op names) until
// release is closed, announcing the call on arrived.
type gatedBackend struct {
	*MemBackend
	op      string
	once    sync.Once
	arrived chan struct{}
	release chan struct{}
}

func newGatedBackend(op string) *gatedBackend {
	return &gatedBackend{MemBackend: NewMemBackend(), op: op, arrived: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedBackend) hold(op string) {
	if op == g.op {
		g.once.Do(func() {
			close(g.arrived)
			<-g.release
		})
	}
}

func (g *gatedBackend) Put(ctx context.Context, spec scenario.Spec, out *scenario.Outcome) error {
	g.hold("put")
	return g.MemBackend.Put(ctx, spec, out)
}

func (g *gatedBackend) GetRaw(ctx context.Context, key string) (json.RawMessage, bool, error) {
	g.hold("getraw")
	return g.MemBackend.GetRaw(ctx, key)
}

// TestDoneJobIsRetired: a worker retires a finished job from the
// in-flight table before it closes the job's done channel, so whoever
// wakes on done reads the key from the store as a cached hit, never the
// retiring job's snapshot. The test holds the queue lock across the
// job's last storage call: a worker that closed done first would be
// caught with done closed and the job still in flight.
func TestDoneJobIsRetired(t *testing.T) {
	for _, c := range []struct {
		name string
		op   string // the storage call the worker makes last
		// recheck stores the cell and enqueues the job directly, as a
		// submit that raced the previous winner's retire would.
		recheck bool
	}{
		{"simulated", "put", false},
		{"recheck-hit", "getraw", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			gb := newGatedBackend(c.op)
			s := NewStorage(gb, scenario.GCConfig{})
			q := NewQueue(s, 1, 0)
			q.run = func(scenario.Spec) (*scenario.Outcome, error) { return htmlOutcome(), nil }
			for _, m := range []Module{s, q} {
				if err := m.Configure(); err != nil {
					t.Fatal(err)
				}
				if err := m.Start(); err != nil {
					t.Fatal(err)
				}
			}
			defer func() {
				if err := q.Stop(); err != nil {
					t.Error(err)
				}
				if err := s.Stop(); err != nil {
					t.Error(err)
				}
			}()

			spec := testSpec(39)
			key, err := scenario.Key(spec)
			if err != nil {
				t.Fatal(err)
			}
			if c.recheck {
				if err := gb.MemBackend.Put(ctx, spec, htmlOutcome()); err != nil {
					t.Fatal(err)
				}
				j := &job{key: key, spec: spec, state: StateQueued, done: make(chan struct{})}
				q.mu.Lock()
				q.inflight[key] = j
				q.mu.Unlock()
				q.queues[q.shardOf(key)] <- j
			} else if _, err := q.Submit(ctx, spec); err != nil {
				t.Fatal(err)
			}

			<-gb.arrived
			q.mu.Lock()
			j := q.inflight[key]
			close(gb.release)
			select {
			case <-j.done:
				q.mu.Unlock()
				t.Fatal("done closed before the job left the in-flight table")
			case <-time.After(250 * time.Millisecond):
				// The worker is waiting for the lock to retire the job.
			}
			q.mu.Unlock()

			<-j.done
			q.mu.Lock()
			_, inflight := q.inflight[key]
			q.mu.Unlock()
			if inflight {
				t.Error("job still in flight after done closed")
			}
			st, ok, err := q.Status(ctx, key)
			if err != nil || !ok || st.State != StateDone || !st.Cached {
				t.Errorf("status after done = %+v (ok=%v, %v), want a cached hit", st, ok, err)
			}
		})
	}
}
