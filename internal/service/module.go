// Package service is the scenario layer as a long-running daemon: an
// HTTP API over a sharded job queue over a pluggable storage backend,
// with the content-addressed scenario.Store as the cache tier. A
// repeated spec is a store hit (~tens of µs) instead of a simulation
// (~hundreds of µs to ms), which is exactly the shape that serves heavy
// repeated traffic; the singleflight job table makes a thundering herd
// on one spec run one simulation.
//
// The package is organized as modules under a coordinator — the
// Configure/Start/Stop lifecycle in the spirit of jbvmio/modules'
// Coordinator interface — so subsystems compose declaratively and stop
// in reverse start order:
//
//	storage  — owns the Backend: lock-free reads, one lock over writes
//	queue    — N sharded workers, in-flight dedup (singleflight)
//	http     — the /v1/scenarios API surface
//
// The storage Backend interface (context-threaded Get/Put/List/Len,
// plus the optional Fetcher read-through hook) is the pluggability
// point: the on-disk scenario.Store is the canonical backend, an
// in-memory backend ships for tests and ephemeral daemons, and
// RemoteBackend tiers either onto another scenariod — local tier first,
// read-through to the shared tier on a miss, write-through on puts,
// and a circuit breaker that degrades the daemon to local-only when
// the remote is down, slow, or erroring (remote trouble can only cost
// cache hits, never a submit).
//
// Unlike every other internal package, service is *not* a deterministic
// simulation layer: it legitimately reads the wall clock and talks to
// the network. It is therefore exempt from the detsource analyzer's
// deterministic-package list (internal/lint pins that list; a test
// asserts the scoping), while the other analyzers still apply.
package service

import (
	"errors"
	"fmt"
)

// Module is one subsystem with a managed lifecycle. Configure validates
// configuration and allocates internal structures (channels, tables) but
// must not touch outside resources — no sockets, no disk writes; Start
// acquires resources and launches goroutines, returning once the module
// is serving; Stop reverses Start, returning once every goroutine has
// drained. Configure is called exactly once before Start; Stop is only
// called after a successful Start.
type Module interface {
	// Name identifies the module in errors and logs.
	Name() string
	Configure() error
	Start() error
	Stop() error
}

// Coordinator composes modules: Configure and Start walk the modules in
// registration order (dependencies first), Stop walks them in reverse,
// so a module's dependencies outlive it on both ends of the lifecycle.
type Coordinator struct {
	modules []Module
	started int // prefix of modules successfully started
}

// NewCoordinator builds a coordinator over the modules in dependency
// order: the first module is started first and stopped last.
func NewCoordinator(mods ...Module) *Coordinator {
	return &Coordinator{modules: mods}
}

// Configure configures every module in order, stopping at the first
// error.
func (c *Coordinator) Configure() error {
	for _, m := range c.modules {
		if err := m.Configure(); err != nil {
			return fmt.Errorf("service: configuring %s: %w", m.Name(), err)
		}
	}
	return nil
}

// Start starts every module in order. On failure the modules already
// running are stopped in reverse, so Start either leaves everything
// serving or nothing.
func (c *Coordinator) Start() error {
	for i, m := range c.modules {
		if err := m.Start(); err != nil {
			c.started = i
			_ = c.stopStarted()
			return fmt.Errorf("service: starting %s: %w", m.Name(), err)
		}
	}
	c.started = len(c.modules)
	return nil
}

// Stop stops the started modules in reverse order, collecting every
// error (a failing module must not shield the ones below it from
// stopping).
func (c *Coordinator) Stop() error {
	return c.stopStarted()
}

func (c *Coordinator) stopStarted() error {
	var errs []error
	for i := c.started - 1; i >= 0; i-- {
		m := c.modules[i]
		if err := m.Stop(); err != nil {
			errs = append(errs, fmt.Errorf("service: stopping %s: %w", m.Name(), err))
		}
	}
	c.started = 0
	return errors.Join(errs...)
}
