package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// The on-disk store fixture. hits-warm and resume-tiered serve a store of
// fixtureCells real cells (every mix kind, short horizons) written through
// scenario.Store.Put from scenario.Run outcomes; resume-tiered's leader
// also holds remoteCells cells the follower lacks. The fixture depends
// only on the seed and is generated once per seed, in a child process,
// into a cache directory, so neither set-up time nor peak RSS of a run
// includes it. Each daemon serves a fresh copy, so writes made during a
// run never reach the cache.

const (
	fixtureCells = 4000
	remoteCells  = 600
	// fixtureFormat names the fixture layout; change it whenever the
	// generated specs change, so stale caches are rebuilt.
	fixtureFormat = "perfbench-fixture-v1"
)

// fixtureSpec is cell i of the shared fixture.
func fixtureSpec(seed int64, i int) (scenario.Spec, error) {
	return mixSpec("fixture", seed, i, mixKindAt(seed, i), fixtureHorizons)
}

// remoteSpec is cell i of the leader-only part.
func remoteSpec(seed int64, i int) (scenario.Spec, error) {
	s := stats.SubSeed(seed, 77)
	return mixSpec("remote", seed, i, mixKindAt(s, i), fixtureHorizons)
}

// fixtureDir is the cache directory of one seed's fixture; its cells/
// and remote/ subdirectories are scenario stores.
func fixtureDir(root string, seed int64) string {
	return filepath.Join(root, "fixtures", strconv.FormatInt(seed, 10))
}

// ensureFixture makes sure the seed's fixture exists, generating it in a
// child process when it does not.
func ensureFixture(root string, seed int64) (string, error) {
	dir := fixtureDir(root, seed)
	if b, err := os.ReadFile(filepath.Join(dir, "DONE")); err == nil && string(b) == fixtureFormat {
		return dir, nil
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(exe, "fixture", "--seed", strconv.FormatInt(seed, 10), "--dir", tmp)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("generating fixture: %w", err)
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", err
	}
	return dir, nil
}

// generateFixture writes the fixture stores under dir (the child
// process's job).
func generateFixture(dir string, seed int64) error {
	for _, part := range []struct {
		sub  string
		n    int
		spec func(int64, int) (scenario.Spec, error)
	}{{"cells", fixtureCells, fixtureSpec}, {"remote", remoteCells, remoteSpec}} {
		st, err := scenario.OpenStore(filepath.Join(dir, part.sub))
		if err != nil {
			return err
		}
		const workers = 2
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < part.n && errs[w] == nil; i += workers {
					errs[w] = putFixtureCell(st, part.spec, seed, i)
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	return os.WriteFile(filepath.Join(dir, "DONE"), []byte(fixtureFormat), 0o644)
}

func putFixtureCell(st *scenario.Store, mk func(int64, int) (scenario.Spec, error), seed int64, i int) error {
	spec, err := mk(seed, i)
	if err != nil {
		return err
	}
	spec.Workers = 1
	out, err := scenario.Run(spec)
	if err != nil {
		return fmt.Errorf("fixture cell %s: %w", spec.Name, err)
	}
	return st.Put(spec, out)
}

// copyStore copies the cell files of one or more stores into dst.
func copyStore(dst string, srcs ...string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, src := range srcs {
		entries, err := os.ReadDir(src)
		if err != nil {
			return err
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(src, e.Name()))
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
