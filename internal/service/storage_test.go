package service

import (
	"bytes"
	"encoding/json"
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
