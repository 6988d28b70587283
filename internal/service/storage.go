package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/scenario"
)

// defaultReqTimeout bounds one backend operation inside the storage
// serve loop. Local backends finish in microseconds; the bound exists
// for tiered backends whose Get/Fetch may cross the network (those also
// apply their own, tighter remote deadline).
const defaultReqTimeout = 30 * time.Second

// Storage is the storage module: it owns the Backend and serializes
// every access through a request/reply channel served by one goroutine
// (the coop/storage pattern). Serialization is what makes the cache-cap
// contract simple — a Put and the GC pass it triggers are one atomic
// step from every other module's point of view, and backends need no
// locking of their own.
//
// Every public method takes the caller's context; the serve loop derives
// a per-request deadline (ReqTimeout) under it before touching the
// backend, so a stuck or slow backend call is cancelled instead of
// wedging the goroutine for everyone behind it.
type Storage struct {
	backend Backend
	// gc caps the cache tier; the zero value disables eviction.
	gc scenario.GCConfig
	// ReqTimeout bounds each backend call made by the serve loop; zero
	// selects defaultReqTimeout. Set before Configure.
	ReqTimeout time.Duration

	reqs chan storageReq
	done chan struct{}

	// stats are owned by the serving goroutine.
	stats StorageStats
	// stale marks stats.Cells/Bytes as out of date: true until the first
	// footprint is taken, and again after every uncapped Put. Stats
	// refreshes a stale footprint with one listing, so a Put never lists
	// the backend and polling Stats between Puts lists nothing.
	stale bool
}

// StorageStats accounts the storage module's traffic.
type StorageStats struct {
	Gets    int64 `json:"gets"`
	Hits    int64 `json:"hits"`
	Puts    int64 `json:"puts"`
	Evicted int64 `json:"evicted"`
	// Cells / Bytes are the backend footprint as of the last Stats after
	// a Put (one listing, taken on demand), or from the last GC pass when
	// caps are configured.
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

// storageOp selects the request kind.
type storageOp int

const (
	opGet storageOp = iota
	opGetRaw
	opFetchRaw
	opPut
	opPush
	opList
	opLen
	opStats
)

// storageReq is one request into the serving goroutine; the reply
// channel is buffered so the server never blocks on a dead client.
type storageReq struct {
	op    storageOp
	ctx   context.Context
	key   string
	spec  scenario.Spec
	out   *scenario.Outcome
	reply chan storageResp
}

type storageResp struct {
	out   *scenario.Outcome
	raw   json.RawMessage
	ok    bool
	infos []scenario.CellInfo
	n     int
	stats StorageStats
	err   error
}

// NewStorage builds the storage module over a backend. gc caps the
// cache tier (zero = unbounded); a capped configuration needs a backend
// implementing GCBackend.
func NewStorage(backend Backend, gc scenario.GCConfig) *Storage {
	return &Storage{backend: backend, gc: gc, stale: true}
}

// Name implements Module.
func (s *Storage) Name() string { return "storage" }

// Configure validates the backend/cap combination and allocates the
// request plumbing.
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
	if s.ReqTimeout == 0 {
		s.ReqTimeout = defaultReqTimeout
	}
	s.reqs = make(chan storageReq)
	s.done = make(chan struct{})
	return nil
}

// Start launches the serving goroutine.
func (s *Storage) Start() error {
	go s.serve()
	return nil
}

// Stop closes the intake and waits for the server to drain. Requests
// after Stop fail with ErrStopped.
func (s *Storage) Stop() error {
	close(s.reqs)
	<-s.done
	return nil
}

// ErrStopped reports a request against a stopped module.
var ErrStopped = fmt.Errorf("service: module stopped")

// ErrConflict reports a push whose outcome differs from the one already
// stored under its key.
var ErrConflict = fmt.Errorf("service: a different outcome is already stored under this key")

// serve is the single goroutine owning the backend.
func (s *Storage) serve() {
	defer close(s.done)
	for req := range s.reqs {
		// Per-request deadline: the caller's context (already cancelled
		// if the client went away) capped by the module bound.
		base := req.ctx
		if base == nil {
			base = context.Background()
		}
		ctx, cancel := context.WithTimeout(base, s.ReqTimeout)
		var resp storageResp
		switch req.op {
		case opGet:
			out, ok, err := s.backend.Get(ctx, req.key)
			s.stats.Gets++
			if ok {
				s.stats.Hits++
			}
			resp = storageResp{out: out, ok: ok, err: err}
		case opGetRaw, opFetchRaw:
			raw, ok, err := s.readRaw(ctx, req.op == opFetchRaw, req.spec, req.key)
			s.stats.Gets++
			if ok {
				s.stats.Hits++
			}
			resp = storageResp{raw: raw, ok: ok, err: err}
		case opPut:
			resp = storageResp{err: s.put(ctx, req.spec, req.out)}
		case opPush:
			resp = storageResp{err: s.push(ctx, req.spec, req.key, req.out)}
		case opList:
			infos, err := s.backend.List(ctx)
			resp = storageResp{infos: infos, err: err}
		case opLen:
			n, err := s.backend.Len(ctx)
			resp = storageResp{n: n, err: err}
		case opStats:
			if s.stale {
				s.refreshFootprint(ctx)
			}
			resp = storageResp{stats: s.statsSnapshot()}
		}
		cancel()
		req.reply <- resp
	}
}

// put writes a cell and, when caps are configured, trims the store.
func (s *Storage) put(ctx context.Context, spec scenario.Spec, out *scenario.Outcome) error {
	if err := s.backend.Put(ctx, spec, out); err != nil {
		return err
	}
	s.stats.Puts++
	s.stale = true
	return s.maybeGC(ctx)
}

// push writes a cell only if its key is not stored yet. A stored key
// must already hold the same outcome bytes, and then nothing is written;
// different bytes are ErrConflict.
func (s *Storage) push(ctx context.Context, spec scenario.Spec, key string, out *scenario.Outcome) error {
	stored, ok, err := s.readRaw(ctx, false, spec, key)
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

// readRaw resolves a key to undecoded outcome bytes: the backend's raw
// hook first, then the decoded path re-encoded. With fetch set the
// decoded path has the spec in hand, so tiered backends read through
// (and may delegate the simulation to their remote); otherwise, and for
// plain backends, it is Get. A hit without an outcome is a miss.
func (s *Storage) readRaw(ctx context.Context, fetch bool, spec scenario.Spec, key string) (json.RawMessage, bool, error) {
	if rg, ok := s.backend.(RawGetter); ok {
		raw, ok, err := rg.GetRaw(ctx, key)
		if err != nil || ok {
			return raw, ok, err
		}
	}
	var out *scenario.Outcome
	var ok bool
	var err error
	if f, tiered := s.backend.(Fetcher); fetch && tiered {
		out, ok, err = f.Fetch(ctx, spec, key)
	} else {
		out, ok, err = s.backend.Get(ctx, key)
	}
	if err != nil || !ok || out == nil {
		return nil, false, err
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return nil, false, fmt.Errorf("storage: encoding outcome %s: %w", key, err)
	}
	return raw, true, nil
}

// statsSnapshot copies the counters and attaches the tier split when the
// backend keeps one.
func (s *Storage) statsSnapshot() StorageStats {
	st := s.stats
	if ts, ok := s.backend.(TierStatter); ok {
		tier := ts.TierStats()
		st.Tier = &tier
	}
	return st
}

// maybeGC runs an eviction pass when caps are configured; the pass's
// result is the fresh footprint.
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
	s.stale = false
	return nil
}

// refreshFootprint recomputes the Cells/Bytes snapshot from a listing.
func (s *Storage) refreshFootprint(ctx context.Context) {
	infos, err := s.backend.List(ctx)
	if err != nil {
		return // footprint is advisory; the next Stats retries
	}
	s.stats.Cells = int64(len(infos))
	s.stats.Bytes = 0
	for _, info := range infos {
		s.stats.Bytes += info.Size
	}
	s.stale = false
}

// call sends one request, translating a stopped module into ErrStopped
// instead of a panic on the closed channel.
func (s *Storage) call(req storageReq) (resp storageResp) {
	defer func() {
		if recover() != nil {
			resp = storageResp{err: ErrStopped}
		}
	}()
	req.reply = make(chan storageResp, 1)
	s.reqs <- req
	return <-req.reply
}

// Get looks a content key up in the backend.
func (s *Storage) Get(ctx context.Context, key string) (*scenario.Outcome, bool, error) {
	resp := s.call(storageReq{op: opGet, ctx: ctx, key: key})
	return resp.out, resp.ok, resp.err
}

// GetRaw looks a content key up and returns the outcome as undecoded
// JSON (see RawGetter).
func (s *Storage) GetRaw(ctx context.Context, key string) (json.RawMessage, bool, error) {
	resp := s.call(storageReq{op: opGetRaw, ctx: ctx, key: key})
	return resp.raw, resp.ok, resp.err
}

// FetchRaw looks a key up with the spec available, letting a tiered
// backend resolve the miss remotely (the queue uses this so a miss
// costs the fleet one simulation, wherever it runs), and returns the
// outcome as undecoded JSON.
func (s *Storage) FetchRaw(ctx context.Context, spec scenario.Spec, key string) (json.RawMessage, bool, error) {
	resp := s.call(storageReq{op: opFetchRaw, ctx: ctx, spec: spec, key: key})
	return resp.raw, resp.ok, resp.err
}

// Put persists an outcome and, when caps are configured, trims the
// cache tier in the same serialized step.
func (s *Storage) Put(ctx context.Context, spec scenario.Spec, out *scenario.Outcome) error {
	return s.call(storageReq{op: opPut, ctx: ctx, spec: spec, out: out}).err
}

// Push stores a computed cell unless its key is already stored: cells
// are written once. Pushing the stored outcome again is a no-op; a
// different outcome fails with ErrConflict and leaves the cell as it is.
// The check and the write are one serialized step.
func (s *Storage) Push(ctx context.Context, spec scenario.Spec, key string, out *scenario.Outcome) error {
	return s.call(storageReq{op: opPush, ctx: ctx, spec: spec, key: key, out: out}).err
}

// List inspects the backend's cells.
func (s *Storage) List(ctx context.Context) ([]scenario.CellInfo, error) {
	resp := s.call(storageReq{op: opList, ctx: ctx})
	return resp.infos, resp.err
}

// Len counts the backend's cells.
func (s *Storage) Len(ctx context.Context) (int, error) {
	resp := s.call(storageReq{op: opLen, ctx: ctx})
	return resp.n, resp.err
}

// Degraded reports whether a tiered backend's circuit breaker is outside
// the closed state. It reads only the breaker — never the backend's
// cells — and does not queue on the serving goroutine, so an error path
// can ask it for free (TierStatter implementations lock their own
// counters).
func (s *Storage) Degraded() bool {
	ts, ok := s.backend.(TierStatter)
	return ok && ts.TierStats().BreakerState != breakerClosed.String()
}

// Stats snapshots the module's accounting.
func (s *Storage) Stats(ctx context.Context) (StorageStats, error) {
	resp := s.call(storageReq{op: opStats, ctx: ctx})
	return resp.stats, resp.err
}
