package service

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/scenario"
)

// Config assembles a scenario daemon.
type Config struct {
	// Addr is the HTTP listen address; "127.0.0.1:0" picks a free port.
	Addr string
	// StoreDir roots the on-disk cache tier; empty selects the in-memory
	// backend (ephemeral: the cache dies with the process).
	StoreDir string
	// Backend overrides the StoreDir/mem selection with a caller-built
	// backend.
	Backend Backend
	// Remote is the base URL of another scenariod to front as a shared
	// cache tier ("http://host:port"). When set, the local backend is
	// wrapped in a RemoteBackend: reads fall through to the remote on a
	// local miss, misses delegate the simulation to the remote's queue,
	// and puts write through. A down or slow remote degrades this daemon
	// to local-only — it never fails a submit.
	Remote string
	// RemoteTimeout bounds each remote round trip; zero selects the
	// RemoteBackend default (5s). A simulation the remote has accepted is
	// waited on without it (see RemoteBackend.Fetch).
	RemoteTimeout time.Duration
	// RemoteSync makes puts block on the write-through instead of
	// queueing it to the background writer.
	RemoteSync bool
	// Shards is the queue worker count; 0 picks min(NumCPU, 4).
	Shards int
	// EngineWorkers caps each simulation's internal parallelism
	// (scenario.Spec.Workers; 0 = all cores).
	EngineWorkers int
	// MaxCells / MaxBytes cap the cache tier; after every Put the
	// storage module evicts oldest-first (see scenario.Store.GC). Zero
	// means unbounded.
	MaxCells int
	MaxBytes int64
}

// Daemon is the composed scenario service: storage, queue and API
// modules under one coordinator.
type Daemon struct {
	coord   *Coordinator
	storage *Storage
	queue   *Queue
	http    *HTTPServer
	backend Backend
}

// New builds and configures a daemon (no sockets or goroutines yet —
// Start owns those).
func New(cfg Config) (*Daemon, error) {
	backend := cfg.Backend
	if backend == nil {
		if cfg.StoreDir != "" {
			sb, err := OpenStoreBackend(cfg.StoreDir)
			if err != nil {
				return nil, err
			}
			backend = sb
		} else {
			backend = NewMemBackend()
		}
	}
	if cfg.Remote != "" {
		// The client keeps its default timeout: RemoteBackend bounds each
		// round trip itself, and RemoteTimeout must not bound the wait on
		// a simulation the remote has accepted.
		rc := NewClient(cfg.Remote)
		backend = NewRemoteBackend(backend, rc,
			RemoteTimeout(cfg.RemoteTimeout), RemoteSyncWrites(cfg.RemoteSync))
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = runtime.NumCPU()
		if shards > 4 {
			shards = 4
		}
	}
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	d := &Daemon{backend: backend}
	d.storage = NewStorage(backend, scenario.GCConfig{MaxBytes: cfg.MaxBytes, MaxCells: cfg.MaxCells})
	d.queue = NewQueue(d.storage, shards, cfg.EngineWorkers)
	d.http = NewHTTPServer(addr, d.queue, d.storage)
	d.coord = NewCoordinator(d.storage, d.queue, d.http)
	if err := d.coord.Configure(); err != nil {
		return nil, err
	}
	return d, nil
}

// Start brings the modules up in dependency order (storage, queue,
// API); on failure everything already started is stopped.
func (d *Daemon) Start() error { return d.coord.Start() }

// Stop tears the modules down in reverse: the API stops accepting,
// the queue drains (its final Puts land), then storage refuses calls.
// A closable backend (RemoteBackend's background writer) is closed
// last, after nothing can reach it.
func (d *Daemon) Stop() error {
	err := d.coord.Stop()
	if c, ok := d.backend.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// BaseURL returns the daemon's API root (valid after Start).
func (d *Daemon) BaseURL() string { return "http://" + d.http.ListenAddr() }

// BackendName identifies the storage backend for logs.
func (d *Daemon) BackendName() string { return d.backend.Name() }

// Shards reports the queue worker count.
func (d *Daemon) Shards() int { return d.queue.shards }

// Queue exposes the queue module (tests and in-process consumers).
func (d *Daemon) Queue() *Queue { return d.queue }

// Storage exposes the storage module (tests and in-process consumers).
func (d *Daemon) Storage() *Storage { return d.storage }

// String describes the daemon for startup logs.
func (d *Daemon) String() string {
	return fmt.Sprintf("scenariod backend=%s shards=%d", d.BackendName(), d.Shards())
}
