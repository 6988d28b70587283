package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestValidKey(t *testing.T) {
	good, err := Key(cheapSpec(26))
	if err != nil {
		t.Fatal(err)
	}
	if !ValidKey(good) {
		t.Errorf("ValidKey rejected a Key result %q", good)
	}
	for _, key := range []string{
		"",
		"deadbeef",
		strings.ToUpper(good),
		good + "0",
		good[:63],
		"../" + good[3:],
		good[:62] + "/x",
		good[:63] + "g",
		strings.Repeat(".", 64),
	} {
		if ValidKey(key) {
			t.Errorf("ValidKey accepted %q", key)
		}
	}
}

// plantCell writes a well-formed cell for spec at path, wherever path
// is — inside or outside a store.
func plantCell(t *testing.T, path string, spec Spec, out *Outcome) {
	t.Helper()
	key, err := Key(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(storeEntry{Version: storeVersion, Key: key, Spec: spec, Outcome: out})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoreMalformedKeyNeverReadsOutside: a key that is not a content
// address is an error from GetKey and GetRaw, even when it names a
// readable cell-shaped file outside the store.
func TestStoreMalformedKeyNeverReadsOutside(t *testing.T) {
	root := t.TempDir()
	st, err := OpenStore(filepath.Join(root, "store"))
	if err != nil {
		t.Fatal(err)
	}
	spec := cheapSpec(26)
	plantCell(t, filepath.Join(root, "secret.json"), spec, &Outcome{Kind: KindSingle})
	for _, key := range []string{"../secret", "..%2Fsecret", filepath.Join(root, "secret")} {
		if out, ok, err := st.GetKey(key); err == nil || ok || out != nil {
			t.Errorf("GetKey(%q) = %v, %v, %v; want an error", key, out, ok, err)
		}
		if raw, ok, err := st.GetRaw(key); err == nil || ok || raw != nil {
			t.Errorf("GetRaw(%q) = %q, %v, %v; want an error", key, raw, ok, err)
		}
	}
}

// TestStoreGetRawMatchesGetKey: the raw outcome bytes are the stored
// outcome, byte-identical after compaction to encoding the decoded one.
func TestStoreGetRawMatchesGetKey(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := cheapSpec(27)
	spec.Record = true
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(spec, out); err != nil {
		t.Fatal(err)
	}
	key, _ := Key(spec)
	raw, ok, err := st.GetRaw(key)
	if err != nil || !ok {
		t.Fatalf("GetRaw = %v, %v after Put", ok, err)
	}
	want, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, raw); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Error("raw outcome differs from the encoded outcome")
	}
	back, ok, err := st.GetKey(key)
	if err != nil || !ok {
		t.Fatalf("GetKey = %v, %v after Put", ok, err)
	}
	if b, _ := json.Marshal(back); string(b) != string(want) {
		t.Error("GetKey outcome differs from the stored outcome")
	}
}

// TestStoreCellEdgeCases: cells without an outcome and cells of another
// version are misses; cells that do not parse, or whose outcome is not
// an object, are errors.
func TestStoreCellEdgeCases(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, _ := Key(cheapSpec(28))
	path := filepath.Join(st.Dir(), key+".json")
	for _, c := range []struct {
		name, body string
		wantErr    bool
	}{
		{"absent outcome", `{"version":1,"key":"k"}`, false},
		{"null outcome", `{"version":1,"outcome":null}`, false},
		{"old version", `{"version":0,"outcome":{"kind":"single","units":null}}`, false},
		{"truncated", `{"version":1,"outcome":{"kind":"sin`, true},
		{"not json", `garbage`, true},
		{"scalar outcome", `{"version":1,"outcome":5}`, true},
		{"string version", `{"version":"1","outcome":{}}`, true},
	} {
		if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		raw, ok, err := st.GetRaw(key)
		if ok || raw != nil || (err != nil) != c.wantErr {
			t.Errorf("%s: GetRaw = %q, %v, %v; want miss, error %v", c.name, raw, ok, err, c.wantErr)
		}
		out, ok, err := st.GetKey(key)
		if ok || out != nil || (err != nil) != c.wantErr {
			t.Errorf("%s: GetKey = %v, %v, %v; want miss, error %v", c.name, out, ok, err, c.wantErr)
		}
	}
}
