//go:build !race

package scenario

import "testing"

// TestStoreGetRawAllocs bounds the raw hit: a file read plus a shallow
// decode, independent of how many maps and floats the outcome holds
// (a full GetKey decode of the same cell allocates over a hundred
// times). Built out of -race, where allocation counts are unreliable.
func TestStoreGetRawAllocs(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := cheapSpec(29)
	spec.Record = true
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(spec, out); err != nil {
		t.Fatal(err)
	}
	key, _ := Key(spec)
	allocs := testing.AllocsPerRun(50, func() {
		if _, ok, err := st.GetRaw(key); err != nil || !ok {
			t.Fatalf("GetRaw = %v, %v", ok, err)
		}
	})
	if allocs > 20 {
		t.Errorf("Store.GetRaw: %.0f allocs/op, want <= 20", allocs)
	}
}
