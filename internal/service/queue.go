package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"repro/internal/scenario"
)

// Job states reported by the API.
const (
	// StateQueued: accepted, waiting for a shard worker.
	StateQueued = "queued"
	// StateRunning: a worker is simulating the spec.
	StateRunning = "running"
	// StateDone: the outcome is available (from the store or fresh).
	StateDone = "done"
	// StateFailed: the run errored; Error carries the message. A
	// re-submit of the same spec retries.
	StateFailed = "failed"
)

// JobStatus is a snapshot of one submitted scenario's progress — the
// JSON shape the API returns for submits and polls.
type JobStatus struct {
	// Key is the spec's content address.
	Key string `json:"key"`
	// State is one of the State* constants.
	State string `json:"state"`
	// Cached reports that the outcome was served from the store without
	// simulating (set on submits that hit the cache and on polls of
	// store-resident keys).
	Cached bool `json:"cached,omitempty"`
	// Error carries the failure message when State is StateFailed.
	Error string `json:"error,omitempty"`
	// Outcome is attached when State is StateDone.
	Outcome *scenario.Outcome `json:"outcome,omitempty"`
}

// QueueStats accounts the queue's traffic.
type QueueStats struct {
	// Submitted counts every accepted submit (including duplicates).
	Submitted int64 `json:"submitted"`
	// CacheHits counts submits answered from the store without queueing.
	CacheHits int64 `json:"cache_hits"`
	// Coalesced counts submits deduplicated onto an in-flight job — the
	// singleflight wins: a thundering herd on one spec is 1 simulation
	// plus N-1 coalesced submits.
	Coalesced int64 `json:"coalesced"`
	// Simulated counts jobs actually executed by workers.
	Simulated int64 `json:"simulated"`
	// Failed counts jobs whose run errored.
	Failed int64 `json:"failed"`
	// Inflight is the current queued+running population.
	Inflight int64 `json:"inflight"`
}

// job is one in-flight scenario.
type job struct {
	key  string
	spec scenario.Spec

	mu      sync.Mutex
	state   string
	cached  bool
	err     string
	outcome *scenario.Outcome
	done    chan struct{} // closed when the job leaves queued/running
	// accepted records that the submit's read-through found the spec
	// accepted by the remote tier; set before the job is enqueued.
	accepted bool
}

// snapshot returns the job's status under its lock.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{Key: j.key, State: j.state, Cached: j.cached, Error: j.err}
	if j.state == StateDone {
		st.Outcome = j.outcome
	}
	return st
}

// Queue is the job-queue module: submitted specs are deduplicated
// against the store and the in-flight table (singleflight), then fanned
// over N sharded workers. A spec's key always lands on the same shard
// (hash sharding), so two submits racing past the dedup window would
// still serialize; each worker runs the scenario layer, which picks the
// lockstep engine for eligible specs — the "sharded lockstep workers".
type Queue struct {
	storage *Storage
	// shards is the worker count (≥ 1).
	shards int
	// engineWorkers caps each run's internal engine parallelism
	// (scenario.Spec.Workers; 0 = all cores).
	engineWorkers int
	// run executes one spec; tests may stub it. Defaults to scenario.Run.
	run func(scenario.Spec) (*scenario.Outcome, error)

	mu       sync.Mutex
	inflight map[string]*job
	accept   bool
	stopping bool
	// submitters tracks Submits past the accept check but not yet
	// enqueued, so Stop never closes a shard channel under a sender.
	submitters sync.WaitGroup

	queues []chan *job
	wg     sync.WaitGroup
	// life is the workers' context. Stop cancels it, which ends a wait
	// on a remote simulation: the remote finishes and stores the cell
	// without this daemon.
	life   context.Context
	cancel context.CancelFunc

	stats struct {
		mu                                                 sync.Mutex
		submitted, cacheHits, coalesced, simulated, failed int64
	}
}

// NewQueue builds the queue module over the storage module.
func NewQueue(storage *Storage, shards, engineWorkers int) *Queue {
	return &Queue{storage: storage, shards: shards, engineWorkers: engineWorkers, run: scenario.Run}
}

// Name implements Module.
func (q *Queue) Name() string { return "queue" }

// Configure validates the shard count and allocates the job table and
// shard channels.
func (q *Queue) Configure() error {
	if q.storage == nil {
		return fmt.Errorf("queue: nil storage module")
	}
	if q.shards < 1 {
		return fmt.Errorf("queue: need at least one shard worker (got %d)", q.shards)
	}
	if q.engineWorkers < 0 {
		return fmt.Errorf("queue: negative engine worker cap %d", q.engineWorkers)
	}
	q.inflight = make(map[string]*job)
	q.life, q.cancel = context.WithCancel(context.Background())
	q.queues = make([]chan *job, q.shards)
	for i := range q.queues {
		// The buffer absorbs submit bursts without blocking the HTTP
		// handler; a full shard applies backpressure on the submitter.
		q.queues[i] = make(chan *job, 256)
	}
	return nil
}

// Start launches the shard workers and opens the intake.
func (q *Queue) Start() error {
	for i := range q.queues {
		q.wg.Add(1)
		go q.worker(q.queues[i])
	}
	q.mu.Lock()
	q.accept = true
	q.mu.Unlock()
	return nil
}

// Stop closes the intake and waits for the workers. Jobs already
// executing finish (their results are persisted for the next process);
// jobs still queued, and jobs waiting on a remote simulation, are failed
// with a shutdown error instead of run, so Stop returns promptly even
// with a deep backlog or a busy remote.
func (q *Queue) Stop() error {
	q.mu.Lock()
	q.accept = false
	q.stopping = true
	q.mu.Unlock()
	q.cancel()
	q.submitters.Wait()
	for i := range q.queues {
		close(q.queues[i])
	}
	q.wg.Wait()
	return nil
}

// shardOf maps a content key to its worker. Keys are SHA-256 hex, so
// the leading 8 hex digits are already uniformly distributed.
func (q *Queue) shardOf(key string) int {
	if len(key) < 8 {
		return 0
	}
	v, err := strconv.ParseUint(key[:8], 16, 64)
	if err != nil {
		return 0
	}
	return int(v % uint64(q.shards))
}

// specError marks a submit error as the spec's fault (the API's 400),
// as opposed to a storage failure (a 500). It keeps the wrapped
// error's message.
type specError struct{ error }

func (e specError) Unwrap() error { return e.error }

// decodeOutcome decodes the outcome bytes of a store hit.
func decodeOutcome(key string, raw json.RawMessage) (*scenario.Outcome, error) {
	var out scenario.Outcome
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("queue: decoding outcome %s: %w", key, err)
	}
	return &out, nil
}

// Submit accepts a spec: validate, hash, answer from the store when the
// cell exists, coalesce onto an in-flight job when one is already
// queued or running (singleflight), otherwise enqueue on the key's
// shard. The returned status is the submit-time snapshot; poll Status
// (or wait on the HTTP API) for completion. The store check reads the
// local tier first. On a local miss the submit registers the job in
// flight before it reads through, so the singleflight owns the
// read-through: on a tiered daemon one bounded round trip to the shared
// remote tier, whose hit answers the submit; a spec the remote accepts
// is left to the job's worker, which waits on the remote's simulation.
// The key's first simulation thus happens once fleet-wide.
func (q *Queue) Submit(ctx context.Context, spec scenario.Spec) (JobStatus, error) {
	st, raw, err := q.submit(ctx, spec)
	if err == nil && raw != nil {
		st.Outcome, err = decodeOutcome(st.Key, raw)
	}
	if err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// submit is Submit without the decode: a store hit returns the cell's
// outcome bytes as raw and leaves the status's Outcome nil; any other
// status carries no raw bytes.
func (q *Queue) submit(ctx context.Context, spec scenario.Spec) (JobStatus, json.RawMessage, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, nil, specError{err}
	}
	spec.Workers = q.engineWorkers
	key, err := scenario.Key(spec)
	if err != nil {
		return JobStatus{}, nil, specError{err}
	}
	q.addStat(&q.stats.submitted)

	// Local tier first: a stored cell answers at once, with no job and
	// no remote call.
	if raw, ok, _, err := q.storage.fetchRaw(ctx, fetchLocal, spec, key); err != nil {
		return JobStatus{}, nil, err
	} else if ok {
		q.addStat(&q.stats.cacheHits)
		return JobStatus{Key: key, State: StateDone, Cached: true}, raw, nil
	}

	q.mu.Lock()
	if !q.accept {
		q.mu.Unlock()
		return JobStatus{}, nil, ErrStopped
	}
	if j, ok := q.inflight[key]; ok {
		// Singleflight: identical spec already queued or running —
		// unless it failed, in which case this submit retries it.
		j.mu.Lock()
		failed := j.state == StateFailed
		j.mu.Unlock()
		if !failed {
			q.mu.Unlock()
			q.addStat(&q.stats.coalesced)
			return j.snapshot(), nil, nil
		}
		delete(q.inflight, key)
	}
	j := &job{key: key, spec: spec, state: StateQueued, done: make(chan struct{})}
	q.inflight[key] = j
	q.submitters.Add(1)
	q.mu.Unlock()
	defer q.submitters.Done()

	// Read through with the job in flight, so concurrent submits of the
	// spec coalesce onto it instead of reading through too.
	raw, ok, accepted, err := q.storage.fetchRaw(ctx, fetchProbe, spec, key)
	if err != nil {
		q.fail(j, err.Error())
		return JobStatus{}, nil, err
	}
	if ok {
		// A hit that does not decode is left to the worker (see recheck).
		if out, err := decodeOutcome(key, raw); err == nil {
			q.finish(j, out, true)
			q.addStat(&q.stats.cacheHits)
			return JobStatus{Key: key, State: StateDone, Cached: true}, raw, nil
		}
	}
	j.accepted = accepted
	q.queues[q.shardOf(key)] <- j
	return j.snapshot(), nil, nil
}

// Status reports a key's progress: in-flight jobs first (including
// failures held for inspection), then the store. ok=false means the key
// is neither in flight nor stored (on a tiered daemon the lookup reads
// through to the remote, so a leader-owned key polls as done here too).
func (q *Queue) Status(ctx context.Context, key string) (JobStatus, bool, error) {
	st, raw, ok, err := q.status(ctx, key)
	if err == nil && raw != nil {
		st.Outcome, err = decodeOutcome(key, raw)
	}
	if err != nil {
		return JobStatus{}, false, err
	}
	return st, ok, nil
}

// status is Status without the decode: a stored key returns its outcome
// bytes as raw, like submit.
func (q *Queue) status(ctx context.Context, key string) (JobStatus, json.RawMessage, bool, error) {
	q.mu.Lock()
	j, inflight := q.inflight[key]
	q.mu.Unlock()
	if inflight {
		return j.snapshot(), nil, true, nil
	}
	raw, ok, err := q.storage.GetRaw(ctx, key)
	if err != nil || !ok {
		return JobStatus{}, nil, false, err
	}
	return JobStatus{Key: key, State: StateDone, Cached: true}, raw, true, nil
}

// Wait blocks until the key's in-flight job completes, the context is
// cancelled, or returns the stored status immediately. ok=false when
// the key is unknown.
func (q *Queue) Wait(ctx context.Context, key string) (JobStatus, bool, error) {
	q.mu.Lock()
	j, inflight := q.inflight[key]
	q.mu.Unlock()
	if inflight {
		select {
		case <-j.done:
			return j.snapshot(), true, nil
		case <-ctx.Done():
			return j.snapshot(), true, ctx.Err()
		}
	}
	return q.Status(ctx, key)
}

// Inflight lists the in-flight jobs' statuses, sorted by key (outcomes
// omitted — listings are inventory, not payload).
func (q *Queue) Inflight() []JobStatus {
	q.mu.Lock()
	statuses := make([]JobStatus, 0, len(q.inflight))
	for _, j := range q.inflight {
		st := j.snapshot()
		st.Outcome = nil
		statuses = append(statuses, st)
	}
	q.mu.Unlock()
	// Sort after collection so map order never reaches the API.
	sort.Slice(statuses, func(i, k int) bool { return statuses[i].Key < statuses[k].Key })
	return statuses
}

// Stats snapshots the queue accounting.
func (q *Queue) Stats() QueueStats {
	q.stats.mu.Lock()
	s := QueueStats{
		Submitted: q.stats.submitted,
		CacheHits: q.stats.cacheHits,
		Coalesced: q.stats.coalesced,
		Simulated: q.stats.simulated,
		Failed:    q.stats.failed,
	}
	q.stats.mu.Unlock()
	q.mu.Lock()
	for _, j := range q.inflight {
		j.mu.Lock()
		if j.state == StateQueued || j.state == StateRunning {
			s.Inflight++
		}
		j.mu.Unlock()
	}
	q.mu.Unlock()
	return s
}

// worker drains one shard: run, persist, publish, retire.
func (q *Queue) worker(jobs <-chan *job) {
	defer q.wg.Done()
	for j := range jobs {
		if q.stopped(j) {
			continue
		}

		j.mu.Lock()
		j.state = StateRunning
		j.mu.Unlock()

		// Re-check the store: a submit can race the previous winner's
		// Put/retire window (store miss observed before the Put, in-flight
		// check after the retire) and enqueue a duplicate job. The worker
		// absorbs that race with a store read instead of a simulation, so
		// "one simulation per unique spec" holds unconditionally. The
		// re-check is a Fetch: on a tiered daemon it reads through to the
		// shared tier and may delegate the simulation to the remote —
		// local engine work is the last resort. A spec the submit saw
		// the remote accept is waited on there with no second probe.
		// Workers run under the queue's lifetime context, not any
		// submitter's.
		if out, ok := q.recheck(j); ok {
			q.finish(j, out, true)
			q.addStat(&q.stats.cacheHits)
			continue
		}
		if q.stopped(j) {
			continue // Stop ended the re-check's wait on the remote
		}

		out, err := q.run(j.spec)
		if err == nil {
			// Persist before publishing: once the job leaves the
			// in-flight table, pollers must find the cell in the store.
			err = q.storage.Put(context.Background(), j.spec, out)
		}

		if err != nil {
			q.fail(j, err.Error())
			continue
		}
		q.finish(j, out, false)
		q.addStat(&q.stats.simulated)
	}
}

// stopped fails the job when the queue is stopping: shutdown fails the
// backlog instead of simulating it.
func (q *Queue) stopped(j *job) bool {
	q.mu.Lock()
	stopping := q.stopping
	q.mu.Unlock()
	if stopping {
		q.fail(j, "scenariod stopping before execution")
	}
	return stopping
}

// fail marks a job failed and wakes its waiters. Failed jobs stay in
// the table so pollers see the error; a re-submit replaces them (see
// Submit).
func (q *Queue) fail(j *job, msg string) {
	j.mu.Lock()
	j.state = StateFailed
	j.err = msg
	j.mu.Unlock()
	close(j.done)
	q.addStat(&q.stats.failed)
}

// finish publishes a job's outcome and retires it.
func (q *Queue) finish(j *job, out *scenario.Outcome, cached bool) {
	j.mu.Lock()
	j.state = StateDone
	j.cached = cached
	j.outcome = out
	j.mu.Unlock()
	q.retire(j)
}

// retire removes a done job from the in-flight table, then wakes its
// waiters. The order matters: once done is closed, a status read must
// find the key in the store (cached), not the retiring job's snapshot.
func (q *Queue) retire(j *job) {
	q.mu.Lock()
	delete(q.inflight, j.key)
	q.mu.Unlock()
	close(j.done)
}

// recheck is the worker's store read before simulating (see worker): a
// hit that does not decode is treated as a miss, so the job re-runs
// and its Put overwrites the cell.
func (q *Queue) recheck(j *job) (*scenario.Outcome, bool) {
	mode := fetchWait
	if j.accepted {
		mode = fetchAccepted
	}
	raw, ok, _, err := q.storage.fetchRaw(q.life, mode, j.spec, j.key)
	if err != nil || !ok {
		return nil, false
	}
	out, err := decodeOutcome(j.key, raw)
	return out, err == nil
}

// addStat bumps one counter under the stats lock.
func (q *Queue) addStat(c *int64) {
	q.stats.mu.Lock()
	*c++
	q.stats.mu.Unlock()
}
