package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
)

// writeTimeout bounds each backend call made under the write lock, so a
// stuck backend cannot hold every writer behind it. Local backends finish
// in microseconds; tiered backends also apply their own, tighter remote
// deadline.
const writeTimeout = 30 * time.Second

// Storage is the storage module: it owns the Backend and calls it
// directly from the caller's goroutine. Backends are safe for concurrent
// use (see Backend), so reads — Get, GetRaw, fetchRaw, List, Len — take
// no storage lock, and a fetchRaw that reads through to a tiered
// backend's remote, or waits there on a delegated simulation, blocks only
// its own caller.
//
// One mutex, the write lock, covers the steps that must be atomic: a Put
// and the GC pass it triggers (the cache-cap contract), a Push's
// stored-bytes check and its write (cells are written once), a tiered
// backend's write-back of a remote hit with its own stored-key check and
// cap pass (see writeBack), and Stats with its refresh of a stale
// footprint. The write-back is local; the remote round trip before it
// holds no lock. Two remote round trips still run inside a write on a
// tiered backend: a Push's check reads through to the remote (so a push
// cannot plant a cell the fleet already holds), and with -remote-sync a
// Put's write-through waits on the remote. Each is bounded by the remote
// deadline, and each blocks writers only.
type Storage struct {
	backend Backend
	// gc caps the cache tier; the zero value disables eviction.
	gc scenario.GCConfig

	// mu is the write lock; stats' write counters and footprint are
	// guarded by it.
	mu    sync.Mutex
	stats StorageStats
	// gets/hits count reads, which hold no lock.
	gets, hits atomic.Int64
	// stale marks stats.Cells/Bytes as out of date: true until the first
	// footprint is taken, and again after every uncapped Put or
	// read-through write-back. Stats refreshes a stale footprint with one
	// listing, so a Put never lists the backend and polling Stats between
	// Puts lists nothing.
	stale atomic.Bool
	// stopped fails every call after Stop with ErrStopped.
	stopped atomic.Bool
}

// StorageStats accounts the storage module's traffic.
type StorageStats struct {
	Gets    int64 `json:"gets"`
	Hits    int64 `json:"hits"`
	Puts    int64 `json:"puts"`
	Evicted int64 `json:"evicted"`
	// Cells / Bytes are the backend footprint as of the last Stats after
	// a write (one listing, taken on demand), or from the last GC pass
	// when caps are configured.
	Cells int64 `json:"cells"`
	Bytes int64 `json:"bytes"`
	// PushConflicts counts pushes refused because a different outcome is
	// already stored under the key: a forgery or a determinism bug.
	PushConflicts int64 `json:"push_conflicts"`
	// Tier is present when the backend is tiered (RemoteBackend): the
	// local/remote hit split, remote failure accounting, and the circuit
	// breaker's state. Nil for single-tier backends.
	Tier *TierStats `json:"tier,omitempty"`
}

// NewStorage builds the storage module over a backend. gc caps the
// cache tier (zero = unbounded); a capped configuration needs a backend
// implementing GCBackend.
func NewStorage(backend Backend, gc scenario.GCConfig) *Storage {
	s := &Storage{backend: backend, gc: gc}
	s.stale.Store(true)
	return s
}

// Name implements Module.
func (s *Storage) Name() string { return "storage" }

// Configure validates the backend/cap combination.
func (s *Storage) Configure() error {
	if s.backend == nil {
		return fmt.Errorf("storage: nil backend")
	}
	if s.gc.Enabled() {
		if s.gc.MaxBytes < 0 || s.gc.MaxCells < 0 {
			return fmt.Errorf("storage: negative GC cap")
		}
		if _, ok := s.backend.(GCBackend); !ok {
			return fmt.Errorf("storage: backend %s does not support eviction (cache caps need a GCBackend)", s.backend.Name())
		}
	}
	return nil
}

// Start implements Module; the module has no goroutine of its own.
func (s *Storage) Start() error { return nil }

// Stop fails every later call with ErrStopped, then waits out the write
// in flight, if any, by taking the write lock.
func (s *Storage) Stop() error {
	s.stopped.Store(true)
	s.mu.Lock()
	defer s.mu.Unlock()
	return nil
}

// ErrStopped reports a request against a stopped module.
var ErrStopped = fmt.Errorf("service: module stopped")

// ErrConflict reports a push whose outcome differs from the one already
// stored under its key.
var ErrConflict = fmt.Errorf("service: a different outcome is already stored under this key")

// write runs f under the write lock with a context bounded by
// writeTimeout, or returns ErrStopped once Stop has begun.
func (s *Storage) write(ctx context.Context, f func(context.Context) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped.Load() {
		return ErrStopped
	}
	ctx, cancel := context.WithTimeout(ctx, writeTimeout)
	defer cancel()
	return f(ctx)
}

// countRead accounts one read.
func (s *Storage) countRead(ok bool) {
	s.gets.Add(1)
	if ok {
		s.hits.Add(1)
	}
}

// put writes a cell and, when caps are configured, trims the store.
// The caller holds the write lock.
func (s *Storage) put(ctx context.Context, spec scenario.Spec, out *scenario.Outcome) error {
	if err := s.backend.Put(ctx, spec, out); err != nil {
		return err
	}
	s.stats.Puts++
	s.stale.Store(true)
	return s.maybeGC(ctx)
}

// push writes a cell only if its key is not stored yet. A stored key
// must already hold the same outcome bytes, and then nothing is written;
// different bytes are ErrConflict. The caller holds the write lock.
func (s *Storage) push(ctx context.Context, spec scenario.Spec, key string, out *scenario.Outcome) error {
	stored, ok, err := s.readRaw(ctx, key)
	if err != nil {
		return err
	}
	if !ok {
		return s.put(ctx, spec, out)
	}
	pushed, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("storage: encoding pushed outcome %s: %w", key, err)
	}
	// Disk cells hold indented JSON; compacted, they are the bytes
	// json.Marshal writes for the same outcome.
	var compact bytes.Buffer
	if err := json.Compact(&compact, stored); err != nil {
		return fmt.Errorf("storage: reading stored outcome %s: %w", key, err)
	}
	if !bytes.Equal(compact.Bytes(), pushed) {
		s.stats.PushConflicts++
		return ErrConflict
	}
	return nil
}

// readRaw resolves a key to undecoded outcome bytes with no spec in
// hand: the backend's raw hook first, then Get re-encoded (on a tiered
// backend, Get reads through to the remote without a write-back).
func (s *Storage) readRaw(ctx context.Context, key string) (json.RawMessage, bool, error) {
	if rg, ok := s.backend.(RawGetter); ok {
		raw, ok, err := rg.GetRaw(ctx, key)
		if err != nil || ok {
			return raw, ok, err
		}
	}
	out, ok, err := s.backend.Get(ctx, key)
	return encodeHit(key, out, ok, err)
}

// encodeHit encodes a decoded read's outcome; a hit without an outcome
// is a miss.
func encodeHit(key string, out *scenario.Outcome, ok bool, err error) (json.RawMessage, bool, error) {
	if err != nil || !ok || out == nil {
		return nil, false, err
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return nil, false, fmt.Errorf("storage: encoding outcome %s: %w", key, err)
	}
	return raw, true, nil
}

// writeBack runs a tiered backend's read-through write-back, f, under
// the write lock: the write and the cap pass after it are one step, as
// with Put, and atomic against a Push's check and write. The write-back
// is not a Put: it is not counted as one and is not pushed to the
// remote. The footprint goes stale.
func (s *Storage) writeBack(ctx context.Context, f func(context.Context) error) error {
	return s.write(ctx, func(ctx context.Context) error {
		if err := f(ctx); err != nil {
			return err
		}
		s.stale.Store(true)
		return s.maybeGC(ctx)
	})
}

// maybeGC runs an eviction pass when caps are configured; the pass's
// result is the fresh footprint. The caller holds the write lock.
func (s *Storage) maybeGC(ctx context.Context) error {
	if !s.gc.Enabled() {
		return nil
	}
	res, err := s.backend.(GCBackend).GC(ctx, s.gc)
	if err != nil {
		return err
	}
	s.stats.Evicted += int64(len(res.Evicted))
	s.stats.Cells = int64(res.Remaining)
	s.stats.Bytes = res.RemainingBytes
	s.stale.Store(false)
	return nil
}

// refreshFootprint recomputes the Cells/Bytes snapshot from a listing.
// The flag is cleared first, so a write-back that lands during the
// listing leaves it set for the next Stats. The caller holds the write
// lock.
func (s *Storage) refreshFootprint(ctx context.Context) {
	s.stale.Store(false)
	infos, err := s.backend.List(ctx)
	if err != nil {
		s.stale.Store(true) // footprint is advisory; the next Stats retries
		return
	}
	s.stats.Cells = int64(len(infos))
	s.stats.Bytes = 0
	for _, info := range infos {
		s.stats.Bytes += info.Size
	}
}

// Get looks a content key up in the backend.
func (s *Storage) Get(ctx context.Context, key string) (*scenario.Outcome, bool, error) {
	if s.stopped.Load() {
		return nil, false, ErrStopped
	}
	out, ok, err := s.backend.Get(ctx, key)
	s.countRead(ok)
	return out, ok, err
}

// GetRaw looks a content key up and returns the outcome as undecoded
// JSON (see RawGetter).
func (s *Storage) GetRaw(ctx context.Context, key string) (json.RawMessage, bool, error) {
	if s.stopped.Load() {
		return nil, false, ErrStopped
	}
	raw, ok, err := s.readRaw(ctx, key)
	s.countRead(ok)
	return raw, ok, err
}

// fetchRaw looks a key up with the spec in hand and returns the
// outcome as undecoded JSON: the raw hook first, then a tiered backend's
// Fetch, which goes past a local miss as far as mode says, or Get on a
// plain backend. With fetchLocal a raw-hook miss is final. accepted
// reports a probe the remote answered with the spec queued or running.
// The read-through holds no lock; its write-back runs under the write
// lock (see writeBack).
func (s *Storage) fetchRaw(ctx context.Context, mode fetchMode, spec scenario.Spec, key string) (raw json.RawMessage, ok, accepted bool, err error) {
	if s.stopped.Load() {
		return nil, false, false, ErrStopped
	}
	defer func() { s.countRead(ok) }()
	if rg, hooked := s.backend.(RawGetter); hooked {
		if raw, ok, err = rg.GetRaw(ctx, key); err != nil || ok || mode == fetchLocal {
			return raw, ok, false, err
		}
	}
	var out *scenario.Outcome
	if f, tiered := s.backend.(Fetcher); tiered {
		o := &fetchOpts{mode: mode, locked: s.writeBack}
		out, ok, err = f.Fetch(context.WithValue(ctx, fetchOptsKey{}, o), spec, key)
		accepted = o.accepted
	} else {
		out, ok, err = s.backend.Get(ctx, key)
	}
	raw, ok, err = encodeHit(key, out, ok, err)
	return raw, ok, accepted, err
}

// Put persists an outcome and, when caps are configured, trims the
// cache tier in the same locked step.
func (s *Storage) Put(ctx context.Context, spec scenario.Spec, out *scenario.Outcome) error {
	return s.write(ctx, func(ctx context.Context) error { return s.put(ctx, spec, out) })
}

// Push stores a computed cell unless its key is already stored: cells
// are written once. Pushing the stored outcome again is a no-op; a
// different outcome fails with ErrConflict and leaves the cell as it is.
// The check and the write are one locked step.
func (s *Storage) Push(ctx context.Context, spec scenario.Spec, key string, out *scenario.Outcome) error {
	return s.write(ctx, func(ctx context.Context) error { return s.push(ctx, spec, key, out) })
}

// List inspects the backend's cells.
func (s *Storage) List(ctx context.Context) ([]scenario.CellInfo, error) {
	if s.stopped.Load() {
		return nil, ErrStopped
	}
	return s.backend.List(ctx)
}

// Len counts the backend's cells.
func (s *Storage) Len(ctx context.Context) (int, error) {
	if s.stopped.Load() {
		return 0, ErrStopped
	}
	return s.backend.Len(ctx)
}

// Degraded reports whether a tiered backend's circuit breaker is outside
// the closed state. It reads only the breaker — never the backend's
// cells — and takes no storage lock, so an error path can ask it for
// free (TierStatter implementations lock their own counters).
func (s *Storage) Degraded() bool {
	ts, ok := s.backend.(TierStatter)
	return ok && ts.TierStats().BreakerState != breakerClosed.String()
}

// Stats snapshots the module's accounting, refreshing a stale footprint
// under the write lock.
func (s *Storage) Stats(ctx context.Context) (StorageStats, error) {
	var st StorageStats
	err := s.write(ctx, func(ctx context.Context) error {
		if s.stale.Load() {
			s.refreshFootprint(ctx)
		}
		st = s.stats
		return nil
	})
	if err != nil {
		return StorageStats{}, err
	}
	st.Gets, st.Hits = s.gets.Load(), s.hits.Load()
	if ts, ok := s.backend.(TierStatter); ok {
		tier := ts.TierStats()
		st.Tier = &tier
	}
	return st, nil
}
