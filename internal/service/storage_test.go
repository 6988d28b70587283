package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/scenario"
)

// TestPutDoesNotList: a Put costs one cell, not a listing of the whole
// store. Uncapped, the first Stats after a Put lists the backend once
// and a second Stats lists nothing; capped, the GC pass that follows
// every Put is the footprint, so Stats never lists.
func TestPutDoesNotList(t *testing.T) {
	const puts = 5
	out := htmlOutcome()
	for _, c := range []struct {
		name       string
		gc         scenario.GCConfig
		maxCells   int // cells the backend keeps
		statsLists int64
	}{
		{"uncapped", scenario.GCConfig{}, puts + 1, 1},
		{"capped", scenario.GCConfig{MaxCells: puts - 2}, puts - 2, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			mem := NewMemBackend()
			cb := &countingBackend{Backend: mem}
			var be Backend = cb
			if c.gc.Enabled() {
				be = struct {
					*countingBackend
					GCBackend
				}{cb, mem}
			}
			s := NewStorage(be, c.gc)
			if err := s.Configure(); err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := s.Stop(); err != nil {
					t.Error(err)
				}
			}()
			put := func(i int) {
				t.Helper()
				if err := s.Put(ctx, testSpec(40+float64(i)), out); err != nil {
					t.Fatal(err)
				}
			}
			stats := func(wantLists int64, wantCells int) {
				t.Helper()
				st, err := s.Stats(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if n := cb.lists.Load(); n != wantLists {
					t.Errorf("backend listed %d times, want %d", n, wantLists)
				}
				infos, err := mem.List(ctx)
				if err != nil {
					t.Fatal(err)
				}
				var size int64
				for _, info := range infos {
					size += info.Size
				}
				wantCells = min(wantCells, c.maxCells)
				if len(infos) != wantCells || st.Cells != int64(len(infos)) || st.Bytes != size {
					t.Errorf("stats footprint %d cells / %d B, backend holds %d cells / %d B (want %d cells)",
						st.Cells, st.Bytes, len(infos), size, wantCells)
				}
			}

			for i := 0; i < puts; i++ {
				put(i)
			}
			if n := cb.lists.Load(); n != 0 {
				t.Fatalf("%d Puts listed the backend %d times, want 0", puts, n)
			}
			stats(c.statsLists, puts)
			stats(c.statsLists, puts) // no Put in between: nothing to refresh
			put(puts)
			stats(2*c.statsLists, puts+1)
		})
	}
}

// TestMemBackendKeepsCellsEncoded: a mem cell is its outcome's JSON.
// GetRaw serves exactly json.Marshal(outcome); Get decodes a copy the
// caller owns; List reports the spec's fields and sizes the cell as
// the encoded {spec, outcome} entry, HTML escapes included.
func TestMemBackendKeepsCellsEncoded(t *testing.T) {
	b := NewMemBackend()
	spec := testSpec(37)
	spec.Name = "mem <cell> & co"
	spec.Jobs[0].Name = "<job>&"
	out := htmlOutcome()
	key, err := scenario.Key(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put(ctx, spec, out); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := json.Marshal(struct {
		Spec    scenario.Spec     `json:"spec"`
		Outcome *scenario.Outcome `json:"outcome"`
	}{spec, out})
	if err != nil {
		t.Fatal(err)
	}

	// The cell does not alias the outcome that was put.
	out.Units[0].Labels["policy"] = "changed"
	raw, ok, err := b.GetRaw(ctx, key)
	if err != nil || !ok || !bytes.Equal(raw, want) {
		t.Fatalf("GetRaw = %.120s (ok=%v, %v), want json.Marshal(outcome) %.120s", raw, ok, err, want)
	}

	got, ok, err := b.Get(ctx, key)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v, %v", ok, err)
	}
	got.Units[0].Labels["policy"] = "mutated"
	got.Units[0].Metrics["viol"] = -1
	got.Units[0].Series[0].V[0] = -1
	got.Aggregate["passes"] = -1
	again, ok, err := b.Get(ctx, key)
	if err != nil || !ok {
		t.Fatalf("second Get: ok=%v, %v", ok, err)
	}
	if enc, err := json.Marshal(again); err != nil || !bytes.Equal(enc, want) {
		t.Errorf("a Get saw the previous Get's mutations: %.120s", enc)
	}

	infos, err := b.List(ctx)
	if err != nil || len(infos) != 1 {
		t.Fatalf("List = %+v, %v; want one cell", infos, err)
	}
	wantInfo := scenario.CellInfo{Key: key, Kind: spec.Kind, Name: spec.Name, Units: 1, Size: int64(len(entry))}
	if infos[0] != wantInfo {
		t.Errorf("List = %+v, want %+v", infos[0], wantInfo)
	}
}

// readThroughBackend is a tiered backend without the network: Fetch
// checks the local tier, then reads the cell from remote and writes it
// back locally through writeBack, as RemoteBackend.Fetch does. The local
// tier's raw and eviction hooks are forwarded. beforeWriteBack, when
// set, runs between the remote read and the write-back.
type readThroughBackend struct {
	Backend
	remote          *MemBackend
	beforeWriteBack func()
}

func (b readThroughBackend) GetRaw(ctx context.Context, key string) (json.RawMessage, bool, error) {
	return b.Backend.(RawGetter).GetRaw(ctx, key)
}

func (b readThroughBackend) GC(ctx context.Context, cfg scenario.GCConfig) (scenario.GCResult, error) {
	return b.Backend.(GCBackend).GC(ctx, cfg)
}

func (b readThroughBackend) Fetch(ctx context.Context, spec scenario.Spec, key string) (*scenario.Outcome, bool, error) {
	if out, ok, err := b.Backend.Get(ctx, key); err != nil || ok {
		return out, ok, err
	}
	out, ok, err := b.remote.Get(ctx, key)
	if err != nil || !ok {
		return nil, false, err
	}
	if b.beforeWriteBack != nil {
		b.beforeWriteBack()
	}
	writeBack(ctx, b.Backend, spec, key, out)
	return out, true, nil
}

// storageBackend names a local tier the concurrency tests run on.
type storageBackend struct {
	name string
	open func(t *testing.T) Backend
}

var storageBackends = []storageBackend{
	{"mem", func(*testing.T) Backend { return NewMemBackend() }},
	{"disk", func(t *testing.T) Backend {
		sb, err := OpenStoreBackend(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return sb
	}},
}

// startStorage configures and starts a storage module, stopping it on
// cleanup.
func startStorage(t *testing.T, be Backend, gc scenario.GCConfig) *Storage {
	t.Helper()
	s := NewStorage(be, gc)
	if err := s.Configure(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Stop(); err != nil {
			t.Errorf("stopping storage: %v", err)
		}
	})
	return s
}

// keyedSpecs builds n distinct specs from ambient base upward, with
// their keys.
func keyedSpecs(t *testing.T, base float64, n int) ([]scenario.Spec, []string) {
	t.Helper()
	specs := make([]scenario.Spec, n)
	keys := make([]string, n)
	for i := range specs {
		specs[i] = testSpec(base + float64(i)/4)
		key, err := scenario.Key(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = key
	}
	return specs, keys
}

// TestStorageConcurrentTraffic: reads, read-through write-backs, Puts,
// Pushes, Stats and listings run at once on the mem and disk backends,
// capped and uncapped. Once the writers finish, a capped store holds no
// more than its cap, an uncapped one holds every cell, and Stats agrees
// with the backend. Run it under -race.
func TestStorageConcurrentTraffic(t *testing.T) {
	const (
		workers = 4
		perG    = 6 // cells each worker puts, pushes or reads through
		maxCell = 5
	)
	out := htmlOutcome()
	for _, be := range storageBackends {
		for _, gc := range []scenario.GCConfig{{}, {MaxCells: maxCell}} {
			t.Run(fmt.Sprintf("%s/maxcells=%d", be.name, gc.MaxCells), func(t *testing.T) {
				remote := NewMemBackend()
				local := be.open(t)
				s := startStorage(t, readThroughBackend{Backend: local, remote: remote}, gc)

				// Each worker owns perG put keys, perG push keys and perG
				// remote-only keys, and reads every key of the others.
				specs, keys := keyedSpecs(t, 20, 3*workers*perG)
				for i := 2 * workers * perG; i < len(specs); i++ {
					if err := remote.Put(ctx, specs[i], out); err != nil {
						t.Fatal(err)
					}
				}
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < perG; i++ {
							put := w*perG + i
							push := workers*perG + put
							fetch := 2*workers*perG + put
							if err := s.Put(ctx, specs[put], out); err != nil {
								t.Errorf("Put: %v", err)
							}
							if err := s.Push(ctx, specs[push], keys[push], out); err != nil {
								t.Errorf("Push: %v", err)
							}
							if _, ok, _, err := s.fetchRaw(ctx, fetchWait, specs[fetch], keys[fetch]); err != nil || !ok {
								t.Errorf("fetchRaw of a remote key: ok=%v, %v", ok, err)
							}
							other := ((w+1)%workers)*perG + i
							if _, _, err := s.GetRaw(ctx, keys[other]); err != nil {
								t.Errorf("GetRaw: %v", err)
							}
							if _, err := s.Stats(ctx); err != nil {
								t.Errorf("Stats: %v", err)
							}
							if _, err := s.List(ctx); err != nil {
								t.Errorf("List: %v", err)
							}
						}
					}(w)
				}
				wg.Wait()

				n, err := local.Len(ctx)
				if err != nil {
					t.Fatal(err)
				}
				want := len(specs)
				if gc.Enabled() {
					want = maxCell
				}
				if n != want {
					t.Errorf("local tier holds %d cells after the writers finished, want %d", n, want)
				}
				st, err := s.Stats(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if st.Cells != int64(n) || st.Puts != int64(2*workers*perG) {
					t.Errorf("stats %d cells / %d puts, want %d / %d", st.Cells, st.Puts, n, 2*workers*perG)
				}
				if gc.Enabled() && st.Evicted != int64(len(specs)-maxCell) {
					t.Errorf("stats evicted %d, want %d", st.Evicted, len(specs)-maxCell)
				}
			})
		}
	}
}

// TestConcurrentPushesWriteOnce: K pushes of different outcomes for one
// fresh key race; exactly one is stored and the rest are conflicts.
func TestConcurrentPushesWriteOnce(t *testing.T) {
	const pushers = 8
	for _, be := range storageBackends {
		t.Run(be.name, func(t *testing.T) {
			s := startStorage(t, be.open(t), scenario.GCConfig{})
			spec := testSpec(36)
			key, err := scenario.Key(spec)
			if err != nil {
				t.Fatal(err)
			}
			outs := make([]*scenario.Outcome, pushers)
			errs := make([]error, pushers)
			var wg sync.WaitGroup
			for k := range outs {
				outs[k] = htmlOutcome()
				outs[k].Aggregate["passes"] = float64(k)
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					errs[k] = s.Push(ctx, spec, key, outs[k])
				}(k)
			}
			wg.Wait()

			winner := -1
			for k, err := range errs {
				switch {
				case err == nil && winner < 0:
					winner = k
				case err == nil:
					t.Errorf("pushes %d and %d both stored", winner, k)
				case err != ErrConflict:
					t.Errorf("push %d: %v, want nil or ErrConflict", k, err)
				}
			}
			if winner < 0 {
				t.Fatal("no push was stored")
			}
			raw, ok, err := s.GetRaw(ctx, key)
			if err != nil || !ok {
				t.Fatalf("GetRaw after the pushes: ok=%v, %v", ok, err)
			}
			want, err := json.Marshal(outs[winner])
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := json.Compact(&got, raw); err != nil || !bytes.Equal(got.Bytes(), want) {
				t.Errorf("stored outcome is not the winning push's (%v)", err)
			}
			st, err := s.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.Puts != 1 || st.PushConflicts != pushers-1 {
				t.Errorf("stats %d puts / %d conflicts, want 1 / %d", st.Puts, st.PushConflicts, pushers-1)
			}
		})
	}
}

// TestStopDuringTraffic: Stop while every kind of call is in flight;
// nothing panics, and every call after Stop returns ErrStopped.
func TestStopDuringTraffic(t *testing.T) {
	out := htmlOutcome()
	remote := NewMemBackend()
	s := startStorage(t, readThroughBackend{Backend: NewMemBackend(), remote: remote}, scenario.GCConfig{MaxCells: 4})
	specs, keys := keyedSpecs(t, 20, 16)
	for i := range specs {
		if err := remote.Put(ctx, specs[i], out); err != nil {
			t.Fatal(err)
		}
	}
	// calls runs each storage call once on cell i and returns the errors.
	calls := func(i int) []error {
		i %= len(specs)
		_, _, getErr := s.Get(ctx, keys[i])
		_, _, rawErr := s.GetRaw(ctx, keys[i])
		_, _, _, fetchErr := s.fetchRaw(ctx, fetchWait, specs[i], keys[i])
		_, listErr := s.List(ctx)
		_, lenErr := s.Len(ctx)
		_, statsErr := s.Stats(ctx)
		return []error{getErr, rawErr, fetchErr, listErr, lenErr, statsErr,
			s.Put(ctx, specs[i], out), s.Push(ctx, specs[i], keys[i], out)}
	}
	var wg, running sync.WaitGroup
	var stopped atomic.Bool
	for g := 0; g < 4; g++ {
		wg.Add(1)
		running.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				if i == g+1 {
					running.Done() // one full round made before Stop
				}
				after := stopped.Load()
				for _, err := range calls(i) {
					if err != nil && err != ErrStopped {
						t.Errorf("call during Stop: %v", err)
					}
					if after && err != ErrStopped {
						t.Errorf("call after Stop returned %v, want ErrStopped", err)
					}
				}
				if after {
					return
				}
			}
		}(g)
	}
	running.Wait()
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	stopped.Store(true)
	wg.Wait()
	for k, err := range calls(0) {
		if err != ErrStopped {
			t.Errorf("call %d after Stop returned %v, want ErrStopped", k, err)
		}
	}
}

// TestWriteBackKeepsPushedCell: a push that lands while a read-through
// is on its way back keeps its cell. The write-back finds the key stored
// and writes nothing, so cells stay written once on a tiered backend.
func TestWriteBackKeepsPushedCell(t *testing.T) {
	for _, be := range storageBackends {
		t.Run(be.name, func(t *testing.T) {
			spec := testSpec(41)
			key, err := scenario.Key(spec)
			if err != nil {
				t.Fatal(err)
			}
			remote, pushed := NewMemBackend(), htmlOutcome()
			pushed.Aggregate["passes"] = 7
			if err := remote.Put(ctx, spec, htmlOutcome()); err != nil {
				t.Fatal(err)
			}
			tb := &readThroughBackend{Backend: be.open(t), remote: remote}
			s := startStorage(t, tb, scenario.GCConfig{})
			tb.beforeWriteBack = func() {
				if err := s.Push(ctx, spec, key, pushed); err != nil {
					t.Errorf("Push during the read-through: %v", err)
				}
			}
			if _, ok, _, err := s.fetchRaw(ctx, fetchWait, spec, key); err != nil || !ok {
				t.Fatalf("fetchRaw = ok %v, %v; want a hit", ok, err)
			}
			raw, ok, err := s.GetRaw(ctx, key)
			if err != nil || !ok {
				t.Fatalf("GetRaw = ok %v, %v", ok, err)
			}
			want, err := json.Marshal(pushed)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := json.Compact(&got, raw); err != nil || !bytes.Equal(got.Bytes(), want) {
				t.Errorf("stored cell is not the pushed one: the write-back overwrote it (%v)", err)
			}
		})
	}
}
