package scenario

import (
	"fmt"
	"os"
	"sort"
)

// Store eviction. A long-running service treats the store as a cache
// tier, and a cache needs a bounded footprint: GC trims the store to the
// configured caps in a deterministic order — oldest modification time
// first, key as the tiebreaker — so two stores holding the same cells
// with the same timestamps evict identically. Eviction is just cell
// deletion: a victim read again later is an ordinary miss and recomputes.

// GCConfig caps the store footprint. A zero field means "no cap on this
// axis"; at least one cap must be set.
type GCConfig struct {
	// MaxBytes caps the summed size of the cell files.
	MaxBytes int64
	// MaxCells caps the number of cells.
	MaxCells int
}

// validate rejects nonsensical cap combinations.
func (c GCConfig) validate() error {
	if c.MaxBytes < 0 || c.MaxCells < 0 {
		return fmt.Errorf("scenario: negative GC cap (max_bytes=%d, max_cells=%d)", c.MaxBytes, c.MaxCells)
	}
	if c.MaxBytes == 0 && c.MaxCells == 0 {
		return fmt.Errorf("scenario: GC needs at least one cap (max_bytes or max_cells)")
	}
	return nil
}

// Enabled reports whether any cap is set (the zero GCConfig disables GC).
func (c GCConfig) Enabled() bool { return c.MaxBytes > 0 || c.MaxCells > 0 }

// GCResult accounts one GC pass.
type GCResult struct {
	// Evicted lists the removed cell keys in eviction order.
	Evicted []string
	// BytesFreed is the summed size of the evicted cell files.
	BytesFreed int64
	// Remaining / RemainingBytes describe the store after the pass.
	Remaining      int
	RemainingBytes int64
}

// gcCandidate is one cell ranked for eviction.
type gcCandidate struct {
	key   string
	size  int64
	mtime int64 // UnixNano: enough resolution to order same-second writes
}

// GC evicts cells until the store fits the caps, returning what was
// removed. Eviction order is deterministic: oldest modification time
// first, lexicographically smallest key on ties. The walk tolerates a
// concurrently deleted cell (another GC, a manual rm) by skipping it;
// a concurrent Put may land after the snapshot, so a caller that needs
// a hard bound re-runs GC (the scenariod storage module holds one write
// lock across a Put and its GC pass, and runs another pass after each
// read-through write-back, which lands outside that lock).
func (st *Store) GC(cfg GCConfig) (GCResult, error) {
	var res GCResult
	if err := cfg.validate(); err != nil {
		return res, err
	}
	keys, err := st.Keys()
	if err != nil {
		return res, err
	}
	cands := make([]gcCandidate, 0, len(keys))
	var total int64
	for _, key := range keys {
		fi, err := os.Stat(st.path(key))
		if os.IsNotExist(err) {
			continue // raced with a concurrent eviction; already gone
		}
		if err != nil {
			return res, fmt.Errorf("scenario: GC stat %s: %w", key, err)
		}
		cands = append(cands, gcCandidate{key: key, size: fi.Size(), mtime: fi.ModTime().UnixNano()})
		total += fi.Size()
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].mtime != cands[j].mtime {
			return cands[i].mtime < cands[j].mtime
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
		if err := os.Remove(st.path(c.key)); err != nil && !os.IsNotExist(err) {
			return res, fmt.Errorf("scenario: GC evicting %s: %w", c.key, err)
		}
		res.Evicted = append(res.Evicted, c.key)
		res.BytesFreed += c.size
		total -= c.size
		remaining--
	}
	res.Remaining = remaining
	res.RemainingBytes = total
	return res, nil
}
