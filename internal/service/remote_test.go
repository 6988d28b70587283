package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
)

// deadRemote is a base URL nothing listens on: connections are refused
// instantly, which is the fastest way to exercise the failure paths.
const deadRemote = "http://127.0.0.1:1"

// fakeClock is a hand-advanced clock for breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }

// TestBreakerTrip: threshold consecutive failures open the breaker;
// successes in between reset the count.
func TestBreakerTrip(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(3, 5*time.Second, clk.now)

	if !b.allow() {
		t.Fatal("fresh breaker refused a call")
	}
	b.failure()
	b.failure()
	b.success() // resets the consecutive count
	b.failure()
	b.failure()
	if b.state() != breakerClosed {
		t.Fatalf("state after interrupted failures = %s, want closed", b.state())
	}
	b.failure()
	if b.state() != breakerOpen {
		t.Fatalf("state after 3 consecutive failures = %s, want open", b.state())
	}
	if b.opens() != 1 {
		t.Errorf("opens = %d, want 1", b.opens())
	}
	if b.allow() {
		t.Error("open breaker admitted a call before cooldown")
	}
}

// TestBreakerHalfOpenProbe: after the cooldown exactly one probe is
// admitted; its failure re-opens the breaker, its success closes it.
func TestBreakerHalfOpenProbe(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(1, 5*time.Second, clk.now)
	b.failure()
	if b.state() != breakerOpen {
		t.Fatalf("state = %s, want open", b.state())
	}

	clk.advance(4 * time.Second)
	if b.allow() {
		t.Fatal("breaker probed before the cooldown elapsed")
	}
	clk.advance(time.Second)
	if !b.allow() {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if b.state() != breakerHalfOpen {
		t.Fatalf("state during probe = %s, want half-open", b.state())
	}
	if b.allow() {
		t.Error("second concurrent call admitted during the single probe")
	}

	// Probe fails: straight back to open for another full cooldown.
	b.failure()
	if b.state() != breakerOpen {
		t.Fatalf("state after failed probe = %s, want open", b.state())
	}
	if b.allow() {
		t.Error("re-opened breaker admitted a call immediately")
	}

	// Next probe succeeds: closed, calls flow again.
	clk.advance(5 * time.Second)
	if !b.allow() {
		t.Fatal("breaker refused the second probe")
	}
	b.success()
	if b.state() != breakerClosed {
		t.Fatalf("state after successful probe = %s, want closed", b.state())
	}
	if !b.allow() || !b.allow() {
		t.Error("closed breaker throttled calls")
	}
}

// TestBreakerDegradedAccounting: time outside the closed state is
// accumulated, including the in-progress interval.
func TestBreakerDegradedAccounting(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(1, time.Second, clk.now)
	b.failure()
	clk.advance(3 * time.Second)
	if got := b.degraded(); got != 3*time.Second {
		t.Errorf("degraded during open = %v, want 3s", got)
	}
	if !b.allow() { // half-open probe
		t.Fatal("probe refused")
	}
	clk.advance(time.Second)
	b.success()
	if got := b.degraded(); got != 4*time.Second {
		t.Errorf("degraded after recovery = %v, want 4s", got)
	}
	clk.advance(time.Hour) // closed time does not accumulate
	if got := b.degraded(); got != 4*time.Second {
		t.Errorf("degraded while closed = %v, want 4s", got)
	}
}

// TestRemoteDownAtStartup: a daemon whose remote never answered a
// single call still serves submits — the breaker trips and the daemon
// runs local-only from the first minute.
func TestRemoteDownAtStartup(t *testing.T) {
	d := startDaemon(t, Config{Remote: deadRemote, RemoteTimeout: 200 * time.Millisecond})
	c := NewClient(d.BaseURL())

	for i := 0; i < 4; i++ {
		st, err := c.Submit(ctx, testSpec(60+float64(i)), true)
		if err != nil {
			t.Fatalf("submit %d with dead remote: %v", i, err)
		}
		if st.State != StateDone {
			t.Fatalf("submit %d state = %s: %s", i, st.State, st.Error)
		}
	}

	sr, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tier := sr.Storage.Tier
	if tier == nil {
		t.Fatal("tiered daemon reports no tier stats")
	}
	if tier.RemoteErrors == 0 {
		t.Error("dead remote produced zero remote_errors")
	}
	// Four consecutive fetch failures are past the default threshold of
	// three: the breaker must have opened (later calls may be probes, so
	// only the transition count is deterministic).
	if tier.BreakerOpens == 0 {
		t.Errorf("breaker never opened: %+v", tier)
	}
}

// TestLeaderDiesMidRun is the headline degraded-mode scenario: a warm
// leader/follower pair loses the leader and the follower keeps serving
// — old keys from its local tier, new keys by simulating itself.
func TestLeaderDiesMidRun(t *testing.T) {
	leader, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Slow simulations keep the follower's connections busy, so the herd's
	// read-throughs dial more.
	leader.Queue().run = func(spec scenario.Spec) (*scenario.Outcome, error) {
		time.Sleep(50 * time.Millisecond)
		return scenario.Run(spec)
	}
	if err := leader.Start(); err != nil {
		t.Fatal(err)
	}
	leaderUp := true
	defer func() {
		if leaderUp {
			_ = leader.Stop()
		}
	}()

	follower := startDaemon(t, Config{Remote: leader.BaseURL(), RemoteTimeout: time.Second})
	fc := NewClient(follower.BaseURL())

	// Warm phase: the follower delegates the simulation to the leader.
	specA := testSpec(70)
	st, err := fc.Submit(ctx, specA, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("warm submit state = %s: %s", st.State, st.Error)
	}
	if sims := leader.Queue().Stats().Simulated; sims != 1 {
		t.Errorf("leader simulated %d, want 1 (follower should delegate)", sims)
	}
	if sims := follower.Queue().Stats().Simulated; sims != 0 {
		t.Errorf("follower simulated %d, want 0 (remote hit)", sims)
	}

	// Kill the leader mid-run.
	if err := leader.Stop(); err != nil {
		t.Fatal(err)
	}
	leaderUp = false

	// Old key: still a local hit (write-back from the warm phase).
	st, err = fc.Submit(ctx, specA, true)
	if err != nil {
		t.Fatalf("resubmit after leader death: %v", err)
	}
	if st.State != StateDone || !st.Cached {
		t.Fatalf("resubmit = %+v, want cached done from the local tier", st)
	}

	// New key: the remote fetch fails, the follower simulates itself —
	// the submit still succeeds.
	st, err = fc.Submit(ctx, testSpec(71), true)
	if err != nil {
		t.Fatalf("cold submit after leader death: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("cold submit state = %s: %s", st.State, st.Error)
	}
	if sims := follower.Queue().Stats().Simulated; sims != 1 {
		t.Errorf("follower simulated %d after leader death, want 1", sims)
	}

	sr, err := fc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Storage.Tier == nil || sr.Storage.Tier.RemoteErrors == 0 {
		t.Errorf("follower tier stats show no remote errors after leader death: %+v", sr.Storage.Tier)
	}
}

// TestWriteThroughFailureNeverFailsPut: a Put whose write-through
// cannot reach the remote still succeeds, synchronously and async.
func TestWriteThroughFailureNeverFailsPut(t *testing.T) {
	spec := testSpec(72)
	out, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []struct {
		name string
		sync bool
	}{{"sync", true}, {"async", false}} {
		t.Run(mode.name, func(t *testing.T) {
			rb := NewRemoteBackend(NewMemBackend(), NewClient(deadRemote),
				RemoteSyncWrites(mode.sync),
				RemoteTimeout(200*time.Millisecond),
				remoteRetry(2, time.Millisecond),
				remoteBreaker(100, time.Hour)) // keep probing: count real errors
			defer func() {
				if err := rb.Close(); err != nil {
					t.Error(err)
				}
			}()

			if err := rb.Put(ctx, spec, out); err != nil {
				t.Fatalf("%s put with dead remote: %v", mode.name, err)
			}
			// The cell is safe in the local tier regardless of the remote.
			key, err := scenario.Key(spec)
			if err != nil {
				t.Fatal(err)
			}
			got, ok, err := rb.Get(ctx, key)
			if err != nil || !ok || got == nil {
				t.Fatalf("local tier lost the put: ok=%v err=%v", ok, err)
			}
			if mode.sync {
				st := rb.TierStats()
				if st.WriteDropped == 0 || st.RemoteErrors == 0 {
					t.Errorf("sync write-through to dead remote not accounted: %+v", st)
				}
			}
		})
	}
}

// TestWriteThroughRetriesTransient5xx: the write-through retry loop is
// the tiered backend's only retry. A leader that answers one 503 and
// then accepts the push costs one remote error and one completed
// write-through, drops nothing, and leaves the breaker closed.
func TestWriteThroughRetriesTransient5xx(t *testing.T) {
	spec := testSpec(74)
	out, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var pushes atomic.Int64
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPut {
			t.Errorf("unexpected %s %s", r.Method, r.URL.Path)
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		if pushes.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(apiError{Error: "transient", Code: CodeInternal})
			return
		}
		_ = json.NewEncoder(w).Encode(JobStatus{State: StateDone})
	}))
	defer leader.Close()

	rb := NewRemoteBackend(NewMemBackend(), NewClient(leader.URL),
		RemoteSyncWrites(true), remoteRetry(3, time.Millisecond))
	defer func() {
		if err := rb.Close(); err != nil {
			t.Error(err)
		}
	}()
	if err := rb.Put(ctx, spec, out); err != nil {
		t.Fatalf("put: %v", err)
	}
	st := rb.TierStats()
	if st.WriteThroughs != 1 || st.WriteDropped != 0 || st.RemoteErrors != 1 || st.BreakerState != "closed" {
		t.Errorf("after one 503 then success: write_throughs %d, write_dropped %d, remote_errors %d, breaker %q; want 1, 0, 1, closed",
			st.WriteThroughs, st.WriteDropped, st.RemoteErrors, st.BreakerState)
	}
	if n := pushes.Load(); n != 2 {
		t.Errorf("leader saw %d pushes, want 2", n)
	}
}

// lateDialer connects at once but hands every connection after the
// first back to the transport only when released: a dial slower than
// the leader's answers, as across a loaded network.
type lateDialer struct {
	dials   atomic.Int64
	release chan struct{}
}

func (l *lateDialer) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if l.dials.Add(1) > 1 {
		<-l.release
	}
	return conn, err
}

// TestLeaderStopAfterFollowerHerd: a herd of concurrent submits through
// a follower makes its client dial a connection per waiting call, and
// each waiting call is served by the first connection as soon as it
// frees up. The late dials then park connections that never carry a
// request, and the leader's shutdown waits on such a connection until
// it is closed. Stopping the follower closes its client's idle
// connections, so the leader's Stop returns at once.
func TestLeaderStopAfterFollowerHerd(t *testing.T) {
	leader, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.Start(); err != nil {
		t.Fatal(err)
	}
	leaderStopped := false
	defer func() {
		if !leaderStopped {
			_ = leader.Stop()
		}
	}()
	// The leader already holds the herd's specs, so each follower submit
	// is one read-through the leader answers at once.
	const herd = 8
	specs := make([]scenario.Spec, herd)
	lc := NewClient(leader.BaseURL())
	for i := range specs {
		specs[i] = testSpec(40 + float64(i)/8)
		if _, err := lc.Submit(ctx, specs[i], true); err != nil {
			t.Fatal(err)
		}
	}
	lc.Close()

	follower, err := New(Config{Remote: leader.BaseURL()})
	if err != nil {
		t.Fatal(err)
	}
	ld := &lateDialer{release: make(chan struct{})}
	released := false
	defer func() {
		if !released {
			close(ld.release)
		}
	}()
	follower.backend.(*RemoteBackend).client.hc.Transport = &http.Transport{DialContext: ld.dial}
	if err := follower.Start(); err != nil {
		t.Fatal(err)
	}
	fc := NewClient(follower.BaseURL())
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := fc.Submit(ctx, specs[i], true); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	fc.Close()
	if n := ld.dials.Load(); n < 2 {
		t.Fatalf("herd dialed %d connections to the leader, want more than 1", n)
	}
	close(ld.release)
	released = true
	begin := time.Now()
	if err := follower.Stop(); err != nil {
		t.Fatalf("stopping follower: %v", err)
	}
	if d := time.Since(begin); d >= time.Second {
		t.Errorf("follower Stop took %v after its client closed, want < 1s", d)
	}

	begin = time.Now()
	leaderStopped = true
	if err := leader.Stop(); err != nil {
		t.Fatalf("stopping leader: %v", err)
	}
	if d := time.Since(begin); d >= time.Second {
		t.Errorf("leader Stop took %v after a follower herd, want < 1s", d)
	}
}

// TestTwoTierByteIdentity: outcomes served through a follower are
// byte-identical to a direct in-process scenario.Run, and each unique
// spec costs exactly one simulation across the fleet, run on the
// leader. Two scenes: one spec submitted cold through the follower (the
// leader simulates on its behalf), and a leader warmed with N specs that
// K concurrent clients then read through the follower. In both, a
// second pass through the follower is served from its local tier: the
// write-back leaves the remote-hit counter where it was. Every count is
// a per-daemon counter, not the process-global tick probe, which both
// in-process daemons share.
func TestTwoTierByteIdentity(t *testing.T) {
	for _, tc := range []struct {
		name       string
		specs      int  // N unique specs
		clients    int  // K concurrent follower clients, each submitting all N
		warmLeader bool // submit every spec to the leader first
	}{
		{name: "cold-leader", specs: 1, clients: 1},
		{name: "warm-leader-concurrent", specs: 4, clients: 4, warmLeader: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			specs := make([]scenario.Spec, tc.specs)
			want := make([]string, tc.specs)
			for i := range specs {
				specs[i] = testSpec(73 + float64(i))
				out, err := scenario.Run(specs[i])
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(out)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = string(b)
			}

			leader := startDaemon(t, Config{})
			follower := startDaemon(t, Config{Remote: leader.BaseURL()})
			if tc.warmLeader {
				lc := NewClient(leader.BaseURL())
				for _, spec := range specs {
					if _, err := lc.Submit(ctx, spec, true); err != nil {
						t.Fatal(err)
					}
				}
			}
			fc := NewClient(follower.BaseURL())

			// pass has K clients submit every spec through the follower
			// at once, checks each outcome's bytes, and reports whether
			// every answer was cached.
			pass := func() (allCached bool) {
				var wg sync.WaitGroup
				var uncached atomic.Int64
				for c := 0; c < tc.clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						for i := range specs {
							// Clients start at different specs so they
							// race on every key, not in lockstep.
							k := (i + c) % len(specs)
							st, err := fc.Submit(ctx, specs[k], true)
							if err != nil || st.State != StateDone {
								t.Errorf("client %d spec %d: state %q, err %v", c, k, st.State, err)
								return
							}
							if got, err := json.Marshal(st.Outcome); err != nil || string(got) != want[k] {
								t.Errorf("client %d spec %d: outcome differs from direct scenario.Run (%v)", c, k, err)
							}
							if !st.Cached {
								uncached.Add(1)
							}
						}
					}(c)
				}
				wg.Wait()
				return uncached.Load() == 0
			}

			pass()
			if sims := follower.Queue().Stats().Simulated; sims != 0 {
				t.Errorf("follower simulated %d with a healthy leader, want 0", sims)
			}
			if sims := leader.Queue().Stats().Simulated + follower.Queue().Stats().Simulated; sims != int64(tc.specs) {
				t.Errorf("fleet simulated %d for %d unique specs", sims, tc.specs)
			}

			// Second pass: the write-back made every key a local hit, so
			// the remote-hit counter must not move again.
			sr1, err := fc.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !pass() {
				t.Error("second pass through the follower not served from its store")
			}
			sr2, err := fc.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if sr1.Storage.Tier == nil || sr2.Storage.Tier == nil {
				t.Fatal("follower reports no tier stats")
			}
			if sr2.Storage.Tier.RemoteHits != sr1.Storage.Tier.RemoteHits {
				t.Errorf("second pass went remote again (%d -> %d remote hits); write-back broken",
					sr1.Storage.Tier.RemoteHits, sr2.Storage.Tier.RemoteHits)
			}
			if sr2.Storage.Tier.LocalHits <= sr1.Storage.Tier.LocalHits {
				t.Errorf("second pass not local hits: %d -> %d", sr1.Storage.Tier.LocalHits, sr2.Storage.Tier.LocalHits)
			}
			if sims := leader.Queue().Stats().Simulated + follower.Queue().Stats().Simulated; sims != int64(tc.specs) {
				t.Errorf("fleet simulated %d after the warm pass, want %d", sims, tc.specs)
			}
		})
	}
}

// TestErrorEnvelopeCodes: the stable machine-readable codes on the
// error envelope, and IsNotFound's code-first matching.
func TestErrorEnvelopeCodes(t *testing.T) {
	d := startDaemon(t, Config{})
	c := NewClient(d.BaseURL())

	_, err := c.Submit(ctx, scenario.Spec{Kind: "warp"}, false)
	se, ok := err.(*StatusError)
	if !ok {
		t.Fatalf("invalid spec error = %T (%v), want *StatusError", err, err)
	}
	if se.Code != http.StatusBadRequest || se.APICode != CodeInvalidSpec {
		t.Errorf("invalid spec -> %d/%q, want 400/%q", se.Code, se.APICode, CodeInvalidSpec)
	}

	_, err = c.Get(ctx, "no-such-key")
	se, ok = err.(*StatusError)
	if !ok {
		t.Fatalf("unknown key error = %T (%v), want *StatusError", err, err)
	}
	if se.Code != http.StatusNotFound || se.APICode != CodeNotFound {
		t.Errorf("unknown key -> %d/%q, want 404/%q", se.Code, se.APICode, CodeNotFound)
	}
	if !IsNotFound(err) {
		t.Error("IsNotFound rejected a coded 404")
	}

	// Matching matrix: codes rule; the raw status is only a fallback for
	// pre-code servers.
	if !IsNotFound(&StatusError{Code: 404}) {
		t.Error("IsNotFound rejected a code-less 404")
	}
	if !IsNotFound(&StatusError{Code: 404, APICode: CodeRemoteDegraded}) {
		t.Error("IsNotFound rejected a degraded 404")
	}
	if IsNotFound(&StatusError{Code: 404, APICode: CodeShuttingDown}) {
		t.Error("IsNotFound matched a non-not-found code on a 404")
	}
	if IsNotFound(fmt.Errorf("plain error")) {
		t.Error("IsNotFound matched a non-StatusError")
	}
}

// TestDegradedReadCode: with the breaker open, a miss on the local
// tier is reported as remote_degraded — "not found here, but the fleet
// may have it" — and still satisfies IsNotFound.
func TestDegradedReadCode(t *testing.T) {
	d := startDaemon(t, Config{Remote: deadRemote, RemoteTimeout: 200 * time.Millisecond})
	c := NewClient(d.BaseURL())

	// Trip the breaker: three submits, three failed remote fetches.
	for i := 0; i < 3; i++ {
		if _, err := c.Submit(ctx, testSpec(50+float64(i)), true); err != nil {
			t.Fatal(err)
		}
	}
	// A well-formed key: a malformed one is not_found before any tier
	// is consulted (TestMalformedKeyNeverServed).
	_, err := c.Get(ctx, strings.Repeat("0", 64))
	se, ok := err.(*StatusError)
	if !ok {
		t.Fatalf("degraded miss error = %T (%v), want *StatusError", err, err)
	}
	if se.Code != http.StatusNotFound || se.APICode != CodeRemoteDegraded {
		t.Errorf("degraded miss -> %d/%q, want 404/%q", se.Code, se.APICode, CodeRemoteDegraded)
	}
	if !IsNotFound(err) {
		t.Error("IsNotFound rejected a degraded miss")
	}
}

// TestPushEndpointValidation: the write-through verb is content
// addressed — the URL key must match the spec's content key.
func TestPushEndpointValidation(t *testing.T) {
	d := startDaemon(t, Config{})
	c := NewClient(d.BaseURL())

	spec := testSpec(55)
	out, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Push(ctx, spec, out); err != nil {
		t.Fatal(err)
	}
	key, err := scenario.Key(spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || !st.Cached {
		t.Errorf("pushed key reads back %+v, want cached done", st)
	}

	// A mismatched key is rejected as an invalid spec.
	body, err := json.Marshal(pushRequest{Spec: spec, Outcome: out})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, d.BaseURL()+"/v1/scenarios/wrongkey", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mismatched push key -> %d, want 400", resp.StatusCode)
	}
	var apiErr apiError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Code != CodeInvalidSpec {
		t.Errorf("mismatched push key code = %q, want %q", apiErr.Code, CodeInvalidSpec)
	}
}

// TestPushCannotOverwriteStoredOutcome: the URL key covers the spec,
// not the outcome, so a push for a simulated key must not replace the
// stored cell. A forged outcome is refused with 409/conflict and
// counted; GET and a resubmit still serve the simulated bytes; an
// honest re-push of those bytes answers 200 and writes nothing. A
// follower whose write-through meets the conflict gives up at once,
// with no retry and no breaker failure.
func TestPushCannotOverwriteStoredOutcome(t *testing.T) {
	spec := testSpec(56)
	want, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	key, err := scenario.Key(spec)
	if err != nil {
		t.Fatal(err)
	}
	forged := &scenario.Outcome{Kind: spec.Kind, Units: []scenario.Unit{{
		Name: "forged", Metrics: map[string]float64{scenario.MetricViolationFrac: 0},
	}}}

	for _, backend := range []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"mem", func(*testing.T) Config { return Config{} }},
		{"disk", func(t *testing.T) Config { return Config{StoreDir: t.TempDir()} }},
	} {
		t.Run(backend.name, func(t *testing.T) {
			d := startDaemon(t, backend.cfg(t))
			c := NewClient(d.BaseURL())
			if _, err := c.Submit(ctx, spec, true); err != nil {
				t.Fatal(err)
			}
			before, err := c.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}

			err = c.Push(ctx, spec, forged)
			if se, ok := err.(*StatusError); !ok || se.Code != http.StatusConflict || se.APICode != CodeConflict {
				t.Fatalf("forged push over a stored cell -> %v, want 409/%s", err, CodeConflict)
			}
			for _, read := range []struct {
				name string
				do   func() (JobStatus, error)
			}{
				{"get", func() (JobStatus, error) { return c.Get(ctx, key) }},
				{"resubmit", func() (JobStatus, error) { return c.Submit(ctx, spec, true) }},
			} {
				st, err := read.do()
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(st.Outcome)
				if err != nil {
					t.Fatal(err)
				}
				if !st.Cached || string(got) != string(wantJSON) {
					t.Errorf("%s after the forged push: cached=%v, outcome matches scenario.Run: %v",
						read.name, st.Cached, string(got) == string(wantJSON))
				}
			}

			if err := c.Push(ctx, spec, want); err != nil {
				t.Errorf("honest re-push of the stored outcome: %v, want 200", err)
			}
			after, err := c.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if n := after.Storage.PushConflicts - before.Storage.PushConflicts; n != 1 {
				t.Errorf("push conflicts counted %d, want 1", n)
			}
			if after.Storage.Puts != before.Storage.Puts {
				t.Errorf("pushes wrote %d cell(s), want 0", after.Storage.Puts-before.Storage.Puts)
			}

			// A follower holding the forgery locally replicates it into
			// this daemon: one refused attempt, no breaker failure.
			rb := NewRemoteBackend(NewMemBackend(), NewClient(d.BaseURL()),
				RemoteSyncWrites(true), remoteRetry(3, time.Millisecond))
			defer func() {
				if err := rb.Close(); err != nil {
					t.Error(err)
				}
			}()
			if err := rb.Put(ctx, spec, forged); err != nil {
				t.Fatal(err)
			}
			ts := rb.TierStats()
			if ts.RemoteErrors != 0 || ts.WriteThroughs != 0 || ts.WriteDropped != 1 || ts.BreakerState != "closed" {
				t.Errorf("follower tier after a conflicting write-through: %+v, want 0 errors, 1 dropped, breaker closed", ts)
			}
			final, err := c.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if n := final.Storage.PushConflicts - after.Storage.PushConflicts; n != 1 {
				t.Errorf("follower pushed the conflicting cell %d times, want 1 (no retry)", n)
			}
		})
	}
}

// startLeader starts a leader daemon whose simulations run through run,
// which the test supplies in place of scenario.Run.
func startLeader(t *testing.T, run func(scenario.Spec) (*scenario.Outcome, error)) *Daemon {
	t.Helper()
	d, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	d.Queue().run = run
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := d.Stop(); err != nil {
			t.Errorf("stopping leader: %v", err)
		}
	})
	return d
}

// TestLocalHitNotBehindLeader: while the follower waits on a leader
// simulation, a key in its local tier still answers at once. The
// follower's storage reads hold no lock, so the wait blocks only the
// request that delegated the simulation.
func TestLocalHitNotBehindLeader(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	leader := startLeader(t, func(spec scenario.Spec) (*scenario.Outcome, error) {
		once.Do(func() { close(started) })
		<-release
		return scenario.Run(spec)
	})
	local := NewMemBackend()
	hit := testSpec(30)
	out, err := scenario.Run(hit)
	if err != nil {
		t.Fatal(err)
	}
	if err := local.Put(ctx, hit, out); err != nil {
		t.Fatal(err)
	}
	follower := startDaemon(t, Config{Backend: local, Remote: leader.BaseURL()})
	fc := NewClient(follower.BaseURL())
	var released sync.Once
	unblock := func() { released.Do(func() { close(release) }) }
	defer unblock() // before the cleanups stop the daemons

	slow := make(chan error, 1)
	go func() {
		_, err := fc.Submit(ctx, testSpec(31), true)
		slow <- err
	}()
	<-started

	answered := make(chan JobStatus, 1)
	begin := time.Now()
	go func() {
		st, err := fc.Submit(ctx, hit, false)
		if err != nil {
			t.Errorf("local hit: %v", err)
		}
		answered <- st
	}()
	select {
	case st := <-answered:
		if st.State != StateDone || !st.Cached {
			t.Errorf("local hit = %+v, want a cached done", st)
		}
		t.Logf("local hit answered in %v behind a held leader simulation", time.Since(begin))
	case <-time.After(250 * time.Millisecond):
		t.Error("local hit still waiting after 250ms behind a held leader simulation")
		unblock()
		<-answered
	}
	unblock()
	if err := <-slow; err != nil {
		t.Errorf("delegated submit: %v", err)
	}
}

// TestCappedFollowerReadThroughKeepsCap: keys read through from the
// leader are written back into a capped follower's local tier, and the
// follower's cap pass runs after each write-back, as after a Put. The
// write-back is not a Put: nothing is pushed back to the leader.
func TestCappedFollowerReadThroughKeepsCap(t *testing.T) {
	const keys, maxCells = 5, 2
	for _, local := range []string{"mem", "disk"} {
		t.Run(local, func(t *testing.T) {
			leader := startDaemon(t, Config{})
			lc := NewClient(leader.BaseURL())
			specs := make([]scenario.Spec, keys)
			for i := range specs {
				specs[i] = testSpec(32 + float64(i))
				if _, err := lc.Submit(ctx, specs[i], true); err != nil {
					t.Fatal(err)
				}
			}
			cfg := Config{Remote: leader.BaseURL(), MaxCells: maxCells}
			if local == "disk" {
				cfg.StoreDir = t.TempDir()
			}
			follower := startDaemon(t, cfg)
			fc := NewClient(follower.BaseURL())
			for _, spec := range specs {
				st, err := fc.Submit(ctx, spec, true)
				if err != nil || st.State != StateDone || !st.Cached {
					t.Fatalf("read-through submit = %+v, %v; want a cached done", st, err)
				}
			}

			n, err := follower.Storage().Len(ctx)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := fc.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if n > maxCells || sr.Storage.Evicted != keys-maxCells {
				t.Errorf("follower holds %d cells, evicted %d; want <= %d and %d evicted",
					n, sr.Storage.Evicted, maxCells, keys-maxCells)
			}
			if sr.Storage.Puts != 0 || sr.Storage.Cells != int64(n) {
				t.Errorf("follower stats %d puts / %d cells, want 0 / %d", sr.Storage.Puts, sr.Storage.Cells, n)
			}
			if tier := sr.Storage.Tier; tier == nil || tier.RemoteHits != keys || tier.WriteThroughs != 0 {
				t.Errorf("follower tier stats %+v, want %d remote hits and no write-throughs", tier, keys)
			}
			if sims := follower.Queue().Stats().Simulated; sims != 0 {
				t.Errorf("follower simulated %d, want 0", sims)
			}
		})
	}
}

// TestBusyLeaderIsNotDown: a leader simulation that outlasts the remote
// timeout is waited on, not counted as a failure. The follower neither
// re-simulates the cell nor trips its breaker, and the fleet simulates
// each spec once, on the leader.
func TestBusyLeaderIsNotDown(t *testing.T) {
	leader := startLeader(t, func(spec scenario.Spec) (*scenario.Outcome, error) {
		time.Sleep(200 * time.Millisecond)
		return scenario.Run(spec)
	})
	follower := startDaemon(t, Config{Remote: leader.BaseURL(), RemoteTimeout: 50 * time.Millisecond})
	fc := NewClient(follower.BaseURL())
	for i := 0; i < 3; i++ {
		st, err := fc.Submit(ctx, testSpec(37+float64(i)), true)
		if err != nil || st.State != StateDone {
			t.Fatalf("submit %d through the follower = %+v, %v", i, st, err)
		}
	}
	sr, err := fc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tier := sr.Storage.Tier
	if tier == nil || tier.BreakerOpens != 0 || tier.RemoteErrors != 0 || tier.RemoteHits != 3 {
		t.Errorf("follower tier stats %+v, want 0 breaker opens, 0 remote errors, 3 remote hits", tier)
	}
	if sims := follower.Queue().Stats().Simulated; sims != 0 {
		t.Errorf("follower simulated %d, want 0", sims)
	}
	if sims := leader.Queue().Stats().Simulated; sims != 3 {
		t.Errorf("leader simulated %d, want 3", sims)
	}
}

// TestCallerGoneIsNotRemoteFailure: a caller that gives up while the
// leader simulates for it says nothing about the leader. The Fetch
// reports a miss, and neither the breaker nor RemoteErrors counts it.
func TestCallerGoneIsNotRemoteFailure(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	leader := startLeader(t, func(spec scenario.Spec) (*scenario.Outcome, error) {
		once.Do(func() { close(started) })
		<-release
		return scenario.Run(spec)
	})
	defer close(release)
	rb := NewRemoteBackend(NewMemBackend(), NewClient(leader.BaseURL()),
		RemoteTimeout(50*time.Millisecond), remoteBreaker(1, time.Hour))
	defer func() {
		if err := rb.Close(); err != nil {
			t.Error(err)
		}
	}()

	spec := testSpec(40)
	key, err := scenario.Key(spec)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	go func() {
		<-started
		cancel()
	}()
	if out, ok, err := rb.Fetch(cctx, spec, key); err != nil || ok || out != nil {
		t.Fatalf("Fetch with the caller gone = %v, %v, %v; want a plain miss", out, ok, err)
	}
	if st := rb.TierStats(); st.RemoteErrors != 0 || st.BreakerState != "closed" {
		t.Errorf("tier stats after the caller left: %+v, want 0 remote errors and a closed breaker", st)
	}
}

// TestFollowerHerdDelegatesOnce: concurrent follower submits of one
// fresh spec coalesce on the follower before any of them reaches the
// leader. The job's submit makes the one bounded accept call, its worker
// makes the one wait call, and the others answer from the job.
func TestFollowerHerdDelegatesOnce(t *testing.T) {
	const herd = 8
	release := make(chan struct{})
	leader := startLeader(t, func(spec scenario.Spec) (*scenario.Outcome, error) {
		<-release
		return scenario.Run(spec)
	})
	target, err := url.Parse(leader.BaseURL())
	if err != nil {
		t.Fatal(err)
	}
	var accepts, waits atomic.Int64
	proxy := httputil.NewSingleHostReverseProxy(target)
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/scenarios" {
			if r.URL.Query().Get("wait") == "1" {
				waits.Add(1)
			} else {
				accepts.Add(1)
			}
		}
		proxy.ServeHTTP(w, r)
	}))
	defer counting.Close()
	follower := startDaemon(t, Config{Remote: counting.URL})
	var released sync.Once
	unblock := func() { released.Do(func() { close(release) }) }
	defer unblock() // before the cleanups stop the daemons

	fc := NewClient(follower.BaseURL())
	spec := testSpec(42)
	errs := make(chan error, herd)
	for i := 0; i < herd; i++ {
		go func() {
			st, err := fc.Submit(ctx, spec, true)
			if err == nil && (st.State != StateDone || st.Outcome == nil) {
				err = fmt.Errorf("state %s", st.State)
			}
			errs <- err
		}()
	}
	// Hold the leader until every submit has reached the follower's
	// singleflight (or a deadline passes).
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if qs := follower.Queue().Stats(); qs.Submitted == herd && qs.Coalesced == herd-1 {
			break
		}
	}
	unblock()
	for i := 0; i < herd; i++ {
		if err := <-errs; err != nil {
			t.Errorf("follower submit: %v", err)
		}
	}
	if a, w := accepts.Load(), waits.Load(); a != 1 || w != 1 {
		t.Errorf("leader saw %d accept calls and %d wait calls, want 1 and 1", a, w)
	}
	if qs := follower.Queue().Stats(); qs.Coalesced != herd-1 || qs.Simulated != 0 {
		t.Errorf("follower queue stats %+v, want %d coalesced and 0 simulated", qs, herd-1)
	}
	if sims := leader.Queue().Stats().Simulated; sims != 1 {
		t.Errorf("leader simulated %d, want 1", sims)
	}
}

// TestFollowerStopEndsLeaderWait: a follower stopping while its worker
// waits on a leader simulation returns at once. The job fails with the
// shutdown error, and the leader finishes and stores the cell without
// the follower.
func TestFollowerStopEndsLeaderWait(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	leader := startLeader(t, func(spec scenario.Spec) (*scenario.Outcome, error) {
		once.Do(func() { close(started) })
		<-release
		return scenario.Run(spec)
	})
	var released sync.Once
	unblock := func() { released.Do(func() { close(release) }) }
	defer unblock() // before the cleanup stops the leader
	follower, err := New(Config{Remote: leader.BaseURL()})
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.Start(); err != nil {
		t.Fatal(err)
	}
	spec := testSpec(43)
	st, err := NewClient(follower.BaseURL()).Submit(ctx, spec, false)
	if err != nil || st.State == StateDone {
		t.Fatalf("submit = %+v, %v; want an in-flight job", st, err)
	}
	<-started
	// Let the worker reach its wait on the leader.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if js := follower.Queue().Inflight(); len(js) == 1 && js[0].State == StateRunning {
			break
		}
	}
	begin := time.Now()
	stopped := make(chan error, 1)
	go func() { stopped <- follower.Stop() }()
	select {
	case err := <-stopped:
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("follower stopped in %v with a leader simulation held", time.Since(begin))
	case <-time.After(time.Second):
		t.Error("follower Stop still waiting on the leader's simulation after 1s")
		unblock()
		<-stopped
	}
	if qs := follower.Queue().Stats(); qs.Failed != 1 || qs.Simulated != 0 {
		t.Errorf("follower queue stats %+v, want 1 failed and 0 simulated", qs)
	}
}
