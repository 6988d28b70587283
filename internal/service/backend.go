package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/scenario"
)

// Backend abstracts the result store the storage module serves. The
// on-disk content-addressed scenario.Store is the canonical backend; an
// in-memory backend ships for tests and ephemeral daemons; RemoteBackend
// fronts either with a shared tier on another scenariod. Every method
// takes a context, so a backend that does I/O (disk, network) can be
// cancelled: reads run under the caller's, and the storage module bounds
// the calls it makes under its write lock.
//
// Backends are safe for concurrent use: the storage module calls them
// from many goroutines at once and serializes only its own writes (a
// tiered backend's read-through write-back among them, see writeBack).
// StoreBackend is safe by its temp-file + rename writes (a reader sees a
// whole cell or none), MemBackend by its own mutex.
type Backend interface {
	// Name identifies the backend in listings and stats.
	Name() string
	// Get returns the outcome stored under a content key (ok=false on a
	// miss).
	Get(ctx context.Context, key string) (*scenario.Outcome, bool, error)
	// Put persists a spec's outcome under its content key.
	Put(ctx context.Context, spec scenario.Spec, out *scenario.Outcome) error
	// List inspects every stored cell, sorted by key.
	List(ctx context.Context) ([]scenario.CellInfo, error)
	// Len reports the number of stored cells.
	Len(ctx context.Context) (int, error)
}

// GCBackend is the optional eviction hook: backends that can trim
// themselves to a footprint cap implement it, and the storage module
// runs a pass after every Put when caps are configured.
type GCBackend interface {
	GC(ctx context.Context, cfg scenario.GCConfig) (scenario.GCResult, error)
}

// Fetcher is the optional read-through hook: a backend that can resolve
// a miss by handing the spec to another tier (RemoteBackend delegates
// the simulation to its remote daemon) implements it. The queue fetches
// instead of getting, so a miss on a tiered daemon costs the fleet one
// simulation wherever the key lands; plain backends fall back to Get.
// The storage module passes per-call options in ctx (fetchOpts), so a
// wrapper must forward ctx as it is; a Fetch that writes a remote hit
// back into a local tier does it through writeBack.
type Fetcher interface {
	Fetch(ctx context.Context, spec scenario.Spec, key string) (*scenario.Outcome, bool, error)
}

// RawGetter is the optional undecoded read hook: a backend that holds
// encoded cells answers a hit with the outcome's JSON bytes, which the
// HTTP layer splices into the response with no decode or re-encode. A
// raw miss is not final — the storage module then takes the decoded
// Get/Fetch path, which is where a tiered backend reads through.
// Backends without the hook are served by that path plus one
// json.Marshal.
type RawGetter interface {
	GetRaw(ctx context.Context, key string) (json.RawMessage, bool, error)
}

// StoreBackend serves an on-disk content-addressed scenario.Store.
type StoreBackend struct {
	st *scenario.Store
}

// OpenStoreBackend opens (creating if needed) a store-backed backend
// rooted at dir.
func OpenStoreBackend(dir string) (*StoreBackend, error) {
	st, err := scenario.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	return &StoreBackend{st: st}, nil
}

// NewStoreBackend wraps an already-open store.
func NewStoreBackend(st *scenario.Store) *StoreBackend { return &StoreBackend{st: st} }

// Name identifies the backend as the store directory.
func (b *StoreBackend) Name() string { return "store:" + b.st.Dir() }

// Get reads a cell by key.
func (b *StoreBackend) Get(_ context.Context, key string) (*scenario.Outcome, bool, error) {
	return b.st.GetKey(key)
}

// GetRaw reads a cell's outcome bytes by key, undecoded.
func (b *StoreBackend) GetRaw(_ context.Context, key string) (json.RawMessage, bool, error) {
	return b.st.GetRaw(key)
}

// Put persists a cell (atomic temp-file + rename, see scenario.Store).
func (b *StoreBackend) Put(_ context.Context, spec scenario.Spec, out *scenario.Outcome) error {
	return b.st.Put(spec, out)
}

// List inspects the store.
func (b *StoreBackend) List(context.Context) ([]scenario.CellInfo, error) { return b.st.List() }

// Len counts the cells.
func (b *StoreBackend) Len(context.Context) (int, error) { return b.st.Len() }

// GC trims the store to the caps (oldest mtime first, key tiebreak).
func (b *StoreBackend) GC(_ context.Context, cfg scenario.GCConfig) (scenario.GCResult, error) {
	return b.st.GC(cfg)
}

// memCell is one in-memory cell, kept encoded: the outcome's JSON (what
// GetRaw serves and Get decodes), the spec fields List reports, and the
// size of the encoded {spec, outcome} entry, so List can report a size
// comparable to the on-disk backend.
type memCell struct {
	kind, name string
	units      int
	raw        json.RawMessage
	size       int64
	seq        int64 // insertion order, the in-memory analog of mtime
}

// memEntryFraming is the byte count json.Marshal adds around the spec
// and outcome encodings of a {spec, outcome} entry.
const memEntryFraming = len(`{"spec":,"outcome":}`)

// MemBackend is the in-memory backend: same contract as StoreBackend,
// nothing on disk. Cells hold the outcome's JSON, not the decoded
// outcome: a hit is served raw (RawGetter) with no decode, and Get
// decodes a fresh copy the caller owns. Eviction order replaces the
// store's mtime with the insertion sequence (oldest insert first, key
// tiebreak on re-puts that keep the original sequence), which is
// deterministic per process.
type MemBackend struct {
	mu    sync.Mutex
	cells map[string]*memCell
	seq   int64
}

// NewMemBackend builds an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{cells: make(map[string]*memCell)}
}

// Name identifies the backend.
func (b *MemBackend) Name() string { return "mem" }

// Get decodes the outcome stored under key into a fresh copy.
func (b *MemBackend) Get(ctx context.Context, key string) (*scenario.Outcome, bool, error) {
	raw, ok, err := b.GetRaw(ctx, key)
	if err != nil || !ok {
		return nil, false, err
	}
	var out scenario.Outcome
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, false, fmt.Errorf("service: decoding mem cell %s: %w", key, err)
	}
	return &out, true, nil
}

// GetRaw returns the outcome's JSON stored under key. The bytes are the
// cell's own (a re-put replaces them, never rewrites them), so callers
// read them and must not modify them.
func (b *MemBackend) GetRaw(_ context.Context, key string) (json.RawMessage, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c, ok := b.cells[key]
	if !ok {
		return nil, false, nil
	}
	return c.raw, true, nil
}

// Put stores the outcome under the spec's content key. A re-put of an
// existing key refreshes the payload but keeps the original insertion
// sequence, mirroring how the disk backend's key identity is stable.
func (b *MemBackend) Put(_ context.Context, spec scenario.Spec, out *scenario.Outcome) error {
	key, err := scenario.Key(spec)
	if err != nil {
		return err
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("service: encoding mem cell %s: %w", key, err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("service: encoding mem cell %s: %w", key, err)
	}
	c := &memCell{
		kind: spec.Kind, name: spec.Name, units: len(out.Units), raw: raw,
		size: int64(memEntryFraming + len(specJSON) + len(raw)),
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	c.seq = b.seq
	if old, ok := b.cells[key]; ok {
		c.seq = old.seq
	} else {
		b.seq++
	}
	b.cells[key] = c
	return nil
}

// List inspects the cells, sorted by key.
func (b *MemBackend) List(context.Context) ([]scenario.CellInfo, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	infos := make([]scenario.CellInfo, 0, len(b.cells))
	for key, c := range b.cells {
		infos = append(infos, scenario.CellInfo{
			Key:   key,
			Kind:  c.kind,
			Name:  c.name,
			Units: c.units,
			Size:  c.size,
		})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Key < infos[j].Key })
	return infos, nil
}

// Len counts the cells.
func (b *MemBackend) Len(context.Context) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.cells), nil
}

// GC trims the backend to the caps: oldest insertion first, key as the
// tiebreaker — the same deterministic contract as Store.GC with the
// insertion sequence standing in for the file mtime.
func (b *MemBackend) GC(_ context.Context, cfg scenario.GCConfig) (scenario.GCResult, error) {
	var res scenario.GCResult
	if !cfg.Enabled() {
		return res, fmt.Errorf("service: GC needs at least one cap (max_bytes or max_cells)")
	}
	if cfg.MaxBytes < 0 || cfg.MaxCells < 0 {
		return res, fmt.Errorf("service: negative GC cap")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	type cand struct {
		key  string
		size int64
		seq  int64
	}
	cands := make([]cand, 0, len(b.cells))
	var total int64
	for key, c := range b.cells {
		cands = append(cands, cand{key: key, size: c.size, seq: c.seq})
		total += c.size
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].seq != cands[j].seq {
			return cands[i].seq < cands[j].seq
		}
		return cands[i].key < cands[j].key
	})
	remaining := len(cands)
	over := func() bool {
		return (cfg.MaxCells > 0 && remaining > cfg.MaxCells) ||
			(cfg.MaxBytes > 0 && total > cfg.MaxBytes)
	}
	for _, c := range cands {
		if !over() {
			break
		}
		delete(b.cells, c.key)
		res.Evicted = append(res.Evicted, c.key)
		res.BytesFreed += c.size
		total -= c.size
		remaining--
	}
	res.Remaining = remaining
	res.RemainingBytes = total
	return res, nil
}
