package main

import (
	"context"
	"io"
	"testing"

	"repro/internal/scenario"
	"repro/internal/service"
)

// TestSelfTimeOverlappingChildren: a parent span [0, 100) with children
// [10, 40) and [30, 60) (overlapping) and [90, 120) (running past the
// parent's end) covers 50 + 10 = 60 of the parent, leaving 40 of self
// time; each child's self time is its whole duration.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: "client", key: "k", layer: 0, start: 0, end: 100},
		{name: "a", key: "k", layer: 1, start: 10, end: 40},
		{name: "b", key: "k", layer: 1, start: 30, end: 60},
		{name: "c", key: "k", layer: 1, start: 90, end: 100},
	}
	link(spans)
	for i := 1; i < len(spans); i++ {
		if spans[i].parent != 0 {
			t.Fatalf("span %s parent = %d, want 0", spans[i].name, spans[i].parent)
		}
	}
	spans[3].end = 120 // past the parent: clipped when covering it
	self := selfTimes(spans)
	if self[0] != 40 {
		t.Errorf("parent self = %d, want 40", self[0])
	}
	for i, want := range []int64{30, 30, 30} {
		if self[i+1] != want {
			t.Errorf("child %d self = %d, want %d", i, self[i+1], want)
		}
	}
}

// TestLinkPicksTightestOuterSpanWithSameKey: a backend span links to the
// shortest enclosing span of an outer layer with its key, never to a
// span of another key or of its own layer.
func TestLinkPicksTightestOuterSpanWithSameKey(t *testing.T) {
	spans := []span{
		{name: "client.submit", key: "k", layer: 0, start: 0, end: 100},
		{name: "client.submit", key: "other", layer: 0, start: 5, end: 60},
		{name: "backend.fetch", key: "k", layer: 1, start: 10, end: 90},
		{name: "local.get", key: "k", layer: 2, start: 12, end: 20},
		{name: "leader.get", key: "k", layer: 3, start: 30, end: 80},
		{name: "backend.get", key: "k", layer: 1, start: 95, end: 110},
	}
	link(spans)
	want := []int{-1, -1, 0, 2, 2, -1}
	for i, w := range want {
		if spans[i].parent != w {
			t.Errorf("span %d (%s) parent = %d, want %d", i, spans[i].name, spans[i].parent, w)
		}
	}
	ss := spanStats(spans)
	if got := ss["backend.fetch"].self; got != (80-8-50)/1e3 {
		t.Errorf("backend.fetch self = %v us, want %v", got, (80-8-50)/1e3)
	}
}

// TestTraceBackendForwardsOptionalInterfaces: the wrapper implements
// TierStatter and io.Closer exactly when the wrapped backend does, so the
// storage module and the daemon treat a traced backend like the real one.
func TestTraceBackendForwardsOptionalInterfaces(t *testing.T) {
	plain, _, err := traceBackend(service.NewMemBackend(), nil, "backend", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.(service.TierStatter); ok {
		t.Error("traced mem backend claims tier stats")
	}
	if _, ok := plain.(io.Closer); ok {
		t.Error("traced mem backend claims Close")
	}
	rb := service.NewRemoteBackend(service.NewMemBackend(), service.NewClient("http://127.0.0.1:1"))
	tiered, _, err := traceBackend(rb, nil, "backend", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tiered.(service.TierStatter); !ok {
		t.Error("traced tier lost TierStats")
	}
	if _, ok := tiered.(service.Fetcher); !ok {
		t.Error("traced tier lost Fetch")
	}
	c, ok := tiered.(io.Closer)
	if !ok {
		t.Fatal("traced tier lost Close")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTracedBackendCountsListsAfterPuts: only a List that directly
// follows a Put (the storage module's footprint refresh) counts towards
// cells listed per put.
func TestTracedBackendCountsListsAfterPuts(t *testing.T) {
	rec := newRecorder()
	be, tb, err := traceBackend(service.NewMemBackend(), rec, "backend", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec, err := mixSpec("test", 1, 0, "single", fixtureHorizons)
	if err != nil {
		t.Fatal(err)
	}
	out, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.List(ctx); err != nil { // a stats listing: not counted
		t.Fatal(err)
	}
	if err := be.Put(ctx, spec, out); err != nil {
		t.Fatal(err)
	}
	if _, err := be.List(ctx); err != nil {
		t.Fatal(err)
	}
	if got := tb.putLists.Load(); got != 1 {
		t.Errorf("lists after puts = %d, want 1", got)
	}
	if got := tb.listed.Load(); got != 1 {
		t.Errorf("cells listed = %d, want 1", got)
	}
	key, _ := scenario.Key(spec)
	spans := rec.snapshot()
	if len(spans) != 3 || spans[1].key != key || spans[2].key != key || spans[0].key != "" {
		t.Errorf("spans = %+v, want the post-put listing keyed by the put", spans)
	}
}
