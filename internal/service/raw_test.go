package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/scenario"
)

// kindSpecs is one cheap spec per built-in kind; the single-job spec
// records series.
func kindSpecs(t *testing.T) []scenario.Spec {
	t.Helper()
	single := testSpec(33)
	single.Record = true
	jobs := []scenario.JobSpec{
		{Name: "a", Workload: scenario.FactoryRef{Name: "constant", Params: scenario.Params{"u": 0.5}},
			Policy: scenario.FactoryRef{Name: "full"}},
		{Name: "b", Workload: scenario.FactoryRef{Name: "prbs", Seed: 3, Params: scenario.Params{"low": 0.2, "high": 0.8, "dwell": 30}},
			Policy: scenario.FactoryRef{Name: "none"}},
	}
	fault, err := scenario.FaultCellSpec(scenario.FaultTarget{Name: "raw", Spec: testSpec(34)}, "dropout", 0.5, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	specs := []scenario.Spec{
		single,
		{Kind: scenario.KindBatch, Name: "raw/batch", Duration: 120, Jobs: jobs},
		{Kind: scenario.KindLockstep, Name: "raw/lockstep", Duration: 120, Jobs: jobs},
		{Kind: scenario.KindFleet, Name: "raw/fleet", Duration: 120,
			Fleet: &scenario.FleetSpec{Size: 2, Seed: 5, Recirc: 0.01}},
		{Kind: scenario.KindFleetCoord, Name: "raw/fleetcoord", Duration: 120,
			Fleet: &scenario.FleetSpec{Size: 2, Seed: 6, Recirc: 0.03}},
		{Kind: scenario.KindMulticore, Name: "raw/multicore", Duration: 120,
			Multicore: &scenario.MulticoreSpec{NCore: 2,
				Workload: scenario.FactoryRef{Name: "constant", Params: scenario.Params{"u": 0.6}}}},
		fault,
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Kind, err)
		}
	}
	return specs
}

// htmlOutcome is a hand-built outcome whose strings need escaping
// (<>&, U+2028) and which carries series and an aggregate.
func htmlOutcome() *scenario.Outcome {
	return &scenario.Outcome{
		Kind: scenario.KindSingle,
		Units: []scenario.Unit{{
			Name:    "unit <0> & co",
			Labels:  map[string]string{"policy": "<full>&", "aisle": "hot aisle"},
			Metrics: map[string]float64{"viol": 1.5e-7, "fan_j": 12345678.9, "zero": 0},
			Series: []scenario.Series{
				{Name: "t<j>", T: []float64{0, 1, 2}, V: []float64{30.25, 31, -1e21}},
				{Name: "empty", T: []float64{}, V: nil},
			},
		}},
		Aggregate: map[string]float64{"passes": 3},
	}
}

// do sends one request and returns the status and exact body bytes.
func do(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// encodedStatus is the response body writeJSON produces for a decoded
// status — the bytes every hit answered before hits were spliced raw.
func encodedStatus(t *testing.T, st JobStatus) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(st); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkHitBytes asserts that a POST of spec and a GET of its key both
// answer a cached hit whose body is byte-identical to the encoded
// status carrying want.
func checkHitBytes(t *testing.T, d *Daemon, spec scenario.Spec, want *scenario.Outcome) {
	t.Helper()
	key, err := scenario.Key(spec)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(spec)
	wantBody := encodedStatus(t, JobStatus{Key: key, State: StateDone, Cached: true, Outcome: want})
	for _, r := range []struct {
		method, url string
		body        []byte
	}{
		{http.MethodPost, d.BaseURL() + "/v1/scenarios?wait=1", body},
		{http.MethodGet, d.BaseURL() + "/v1/scenarios/" + key, nil},
	} {
		code, got := do(t, r.method, r.url, r.body)
		if code != http.StatusOK || !bytes.Equal(got, wantBody) {
			t.Errorf("%s %s %s: HTTP %d, body differs from the encoded outcome\ngot  %.300s\nwant %.300s",
				spec.Kind, r.method, d.BackendName(), code, got, wantBody)
		}
	}
}

// TestRawHitByteIdentity: for every built-in kind, a hit spliced from
// the stored bytes is byte-identical to the status encoded from the
// decoded outcome — on the disk store, the in-memory backend and a
// follower's local disk tier (counted as a local hit), all on the raw
// path.
func TestRawHitByteIdentity(t *testing.T) {
	specs := kindSpecs(t)
	wants := make([]*scenario.Outcome, len(specs))
	for i, s := range specs {
		out, err := scenario.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Kind, err)
		}
		wants[i] = out
	}
	leader := startDaemon(t, Config{})
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"store", Config{StoreDir: t.TempDir()}},
		{"mem", Config{}},
		{"tiered", Config{StoreDir: t.TempDir(), Remote: leader.BaseURL()}},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := startDaemon(t, c.cfg)
			cl := NewClient(d.BaseURL())
			for i, s := range specs {
				if st, err := cl.Submit(ctx, s, true); err != nil || st.State != StateDone {
					t.Fatalf("%s: first submit %+v, %v", s.Kind, st, err)
				}
				checkHitBytes(t, d, s, wants[i])
			}
			html := testSpec(35)
			if err := d.Storage().Put(ctx, html, htmlOutcome()); err != nil {
				t.Fatal(err)
			}
			checkHitBytes(t, d, html, htmlOutcome())

			if c.name == "tiered" {
				ss, err := d.Storage().Stats(ctx)
				if err != nil {
					t.Fatal(err)
				}
				// Two hits (POST, GET) per spec, all from the local tier.
				if want := int64(2 * (len(specs) + 1)); ss.Tier == nil || ss.Tier.LocalHits < want {
					t.Errorf("tier stats %+v, want >= %d local hits", ss.Tier, want)
				}
			}
		})
	}
}

// TestRawJobStatusMirrorsJobStatus: the raw envelope has JobStatus's
// fields in the same order with the same tags, which is what keeps the
// spliced bytes identical.
func TestRawJobStatusMirrorsJobStatus(t *testing.T) {
	a, b := reflect.TypeOf(JobStatus{}), reflect.TypeOf(rawJobStatus{})
	if a.NumField() != b.NumField() {
		t.Fatalf("JobStatus has %d fields, rawJobStatus %d", a.NumField(), b.NumField())
	}
	for i := 0; i < a.NumField(); i++ {
		fa, fb := a.Field(i), b.Field(i)
		if fa.Name != fb.Name || fa.Tag != fb.Tag {
			t.Errorf("field %d: JobStatus %s %q, rawJobStatus %s %q", i, fa.Name, fa.Tag, fb.Name, fb.Tag)
		}
		if fa.Name != "Outcome" && fa.Type != fb.Type {
			t.Errorf("field %s: type %v vs %v", fa.Name, fa.Type, fb.Type)
		}
	}
}

// storedCell puts spec's outcome into a fresh store directory and
// returns the directory and the cell file's path.
func storedCell(t *testing.T, spec scenario.Spec) (dir, path string) {
	t.Helper()
	dir = t.TempDir()
	st, err := scenario.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	out, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(spec, out); err != nil {
		t.Fatal(err)
	}
	key, _ := scenario.Key(spec)
	return dir, filepath.Join(dir, key+".json")
}

// TestRawStaleOrEmptyCellIsMiss: a cell of an old format version, or
// one whose outcome is null or absent, is a miss — polled as 404 and
// re-simulated on submit — never a done answer without an outcome.
func TestRawStaleOrEmptyCellIsMiss(t *testing.T) {
	spec := testSpec(36)
	key, _ := scenario.Key(spec)
	for _, c := range []struct {
		name string
		edit func(b []byte) []byte
	}{
		{"old version", func(b []byte) []byte { return bytes.Replace(b, []byte(`"version": 1`), []byte(`"version": 0`), 1) }},
		{"null outcome", func([]byte) []byte { return []byte(`{"version": 1, "key": "` + key + `", "outcome": null}`) }},
		{"absent outcome", func([]byte) []byte { return []byte(`{"version": 1, "key": "` + key + `"}`) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir, path := storedCell(t, spec)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			edited := c.edit(b)
			if bytes.Equal(edited, b) {
				t.Fatal("edit left the cell unchanged")
			}
			if err := os.WriteFile(path, edited, 0o644); err != nil {
				t.Fatal(err)
			}
			d := startDaemon(t, Config{StoreDir: dir})
			cl := NewClient(d.BaseURL())
			if _, err := cl.Get(ctx, key); !IsNotFound(err) {
				t.Errorf("poll: %v, want 404", err)
			}
			before := scenario.ProbeSimTicks()
			st, err := cl.Submit(ctx, spec, true)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != StateDone || st.Cached || st.Outcome == nil {
				t.Errorf("submit = %+v, want a fresh done with an outcome", st)
			}
			if scenario.ProbeSimTicks() == before {
				t.Error("submit did not re-simulate")
			}
			if st, err := cl.Submit(ctx, spec, true); err != nil || !st.Cached || st.Outcome == nil {
				t.Errorf("resubmit = %+v, %v; want a cached hit from the rewritten cell", st, err)
			}
		})
	}
}

// TestRawCorruptCellIsError: a cell that does not parse, or whose
// outcome is not an object, answers 500 on submit and poll; its bytes
// are never spliced into a response.
func TestRawCorruptCellIsError(t *testing.T) {
	spec := testSpec(37)
	key, _ := scenario.Key(spec)
	for _, c := range []struct {
		name string
		body string
	}{
		{"truncated", `{"version": 1, "outcome": {"kind": "single", "units": [`},
		{"scalar outcome", `{"version": 1, "outcome": "corrupt-marker"}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir, path := storedCell(t, spec)
			if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
				t.Fatal(err)
			}
			d := startDaemon(t, Config{StoreDir: dir})
			body, _ := json.Marshal(spec)
			for _, r := range []struct {
				method, url string
				body        []byte
			}{
				{http.MethodPost, d.BaseURL() + "/v1/scenarios", body},
				{http.MethodGet, d.BaseURL() + "/v1/scenarios/" + key, nil},
			} {
				code, got := do(t, r.method, r.url, r.body)
				var e apiError
				if code != http.StatusInternalServerError || json.Unmarshal(got, &e) != nil || e.Code != CodeInternal {
					t.Errorf("%s: HTTP %d %s, want 500 %s", r.method, code, got, CodeInternal)
				}
				if bytes.Contains(got, []byte("corrupt-marker")) || bytes.Contains(got, []byte(`"units"`)) {
					t.Errorf("%s: corrupt cell bytes spliced into the response: %s", r.method, got)
				}
			}
		})
	}
}

// countingBackend counts the calls a daemon makes into its backend.
type countingBackend struct {
	Backend
	gets, lists atomic.Int64
}

func (c *countingBackend) Get(ctx context.Context, key string) (*scenario.Outcome, bool, error) {
	c.gets.Add(1)
	return c.Backend.Get(ctx, key)
}

func (c *countingBackend) List(ctx context.Context) ([]scenario.CellInfo, error) {
	c.lists.Add(1)
	return c.Backend.List(ctx)
}

// TestNotFoundDoesNotList: a 404 on a daemon that never put reads only
// the breaker state; it used to run a full listing (decoding every cell)
// to refresh the footprint.
func TestNotFoundDoesNotList(t *testing.T) {
	cb := &countingBackend{Backend: NewMemBackend()}
	d := startDaemon(t, Config{Backend: cb})
	_, err := NewClient(d.BaseURL()).Get(ctx, strings.Repeat("0", 64))
	if se, ok := err.(*StatusError); !ok || se.APICode != CodeNotFound {
		t.Fatalf("absent key: %v, want 404 %s", err, CodeNotFound)
	}
	if n := cb.lists.Load(); n != 0 {
		t.Errorf("a 404 listed the backend %d times, want 0", n)
	}
}

// TestMalformedKeyNeverServed: a cell-shaped file planted next to the
// store and requested through the key path (..%2Fsecret) is never
// served, and a malformed key consults neither the local backend nor
// the remote tier.
func TestMalformedKeyNeverServed(t *testing.T) {
	root := t.TempDir()
	spec := testSpec(38)
	outside, err := scenario.OpenStore(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := outside.Put(spec, htmlOutcome()); err != nil {
		t.Fatal(err)
	}
	key, _ := scenario.Key(spec)
	if err := os.Rename(filepath.Join(root, key+".json"), filepath.Join(root, "secret.json")); err != nil {
		t.Fatal(err)
	}

	var remoteCalls atomic.Int64
	remote := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		remoteCalls.Add(1)
		writeError(w, http.StatusNotFound, CodeNotFound, "nothing here")
	}))
	defer remote.Close()
	local, err := OpenStoreBackend(filepath.Join(root, "store"))
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBackend{Backend: local}
	for _, d := range []*Daemon{
		startDaemon(t, Config{StoreDir: filepath.Join(root, "store")}),
		startDaemon(t, Config{Backend: cb, Remote: remote.URL}),
	} {
		for _, path := range []string{"..%2Fsecret", "..%2F..%2F" + filepath.Base(root) + "%2Fsecret", strings.ToUpper(key)} {
			code, body := do(t, http.MethodGet, d.BaseURL()+"/v1/scenarios/"+path, nil)
			var e apiError
			if code != http.StatusNotFound || json.Unmarshal(body, &e) != nil || e.Code != CodeNotFound {
				t.Errorf("%s GET %s: HTTP %d %s, want 404 %s", d.BackendName(), path, code, body, CodeNotFound)
			}
		}
	}
	if n := cb.gets.Load(); n != 0 {
		t.Errorf("malformed keys reached the local backend %d times", n)
	}
	if n := remoteCalls.Load(); n != 0 {
		t.Errorf("malformed keys reached the remote tier %d times", n)
	}
}

// FuzzHTTPKeyPath: whatever arrives in the key segment, the daemon
// answers 200 only for the one stored key, never a 500, and never the
// cell planted outside its store.
func FuzzHTTPKeyPath(f *testing.F) {
	root := f.TempDir()
	outside, err := scenario.OpenStore(root)
	if err != nil {
		f.Fatal(err)
	}
	secret := testSpec(39)
	planted := htmlOutcome()
	planted.Units[0].Name = "planted-outside-store"
	if err := outside.Put(secret, planted); err != nil {
		f.Fatal(err)
	}
	secretKey, _ := scenario.Key(secret)
	if err := os.Rename(filepath.Join(root, secretKey+".json"), filepath.Join(root, "secret.json")); err != nil {
		f.Fatal(err)
	}
	d, err := New(Config{StoreDir: filepath.Join(root, "store")})
	if err != nil {
		f.Fatal(err)
	}
	if err := d.Start(); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = d.Stop() })
	spec := testSpec(40)
	if err := d.Storage().Put(context.Background(), spec, htmlOutcome()); err != nil {
		f.Fatal(err)
	}
	stored, _ := scenario.Key(spec)

	for _, seed := range []string{stored, secretKey, "../secret", "..", ".", "", "/", "%2e%2e", "secret",
		"../" + filepath.Base(root) + "/secret", strings.ToUpper(stored), stored + "/", "deadbeef"} {
		f.Add(seed)
	}
	handler := d.http.srv.Handler
	f.Fuzz(func(t *testing.T, key string) {
		req, err := http.NewRequest(http.MethodGet, "/v1/scenarios/"+url.PathEscape(key), nil)
		if err != nil {
			t.Skip()
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code == http.StatusOK && key != stored {
			t.Errorf("key %q answered 200", key)
		}
		if rec.Code >= 500 {
			t.Errorf("key %q answered %d: %s", key, rec.Code, rec.Body)
		}
		if strings.Contains(rec.Body.String(), "planted-outside-store") {
			t.Errorf("key %q served the cell planted outside the store", key)
		}
	})
}
