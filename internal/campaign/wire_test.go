package campaign

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wsinterop/internal/faultinject"
	"wsinterop/internal/obs"
)

// wireCase drives one wire mode through its public surface, so the
// durability tests below run over both modes of the engine.
type wireCase struct {
	name string
	// limit sizes the corpus; a faults cell exchanges 11 columns to the
	// versions cell's 4, so its corpus is smaller.
	limit int
	// counters is the prefix of the mode's outcome counters.
	counters string
	run      func(context.Context, *Runner) (any, error)
	merge    func(context.Context, *Runner, []string) (any, error)
	// drifted builds a runner whose store fingerprint differs from
	// NewRunner(cfg)'s for this mode only.
	drifted func(cfg Config) *Runner
}

var wireCases = []wireCase{
	{
		name:     "versions",
		limit:    40,
		counters: "campaign.versions.",
		run:      func(ctx context.Context, r *Runner) (any, error) { return r.RunVersions(ctx) },
		merge:    func(ctx context.Context, r *Runner, dirs []string) (any, error) { return r.MergeVersions(ctx, dirs) },
		drifted: func(cfg Config) *Runner {
			cfg.Limit++
			return NewRunner(cfg)
		},
	},
	{
		name:     "faults",
		limit:    20,
		counters: "campaign.robust.",
		run:      func(ctx context.Context, r *Runner) (any, error) { return r.RunRobustness(ctx) },
		merge:    func(ctx context.Context, r *Runner, dirs []string) (any, error) { return r.MergeRobustness(ctx, dirs) },
		drifted: func(cfg Config) *Runner {
			r := NewRunner(cfg)
			r.faults = faultinject.Catalog()[:3]
			return r
		},
	},
}

// wireRun runs the mode on a fresh runner, returning the result bytes
// and the mode's outcome counters.
func (c wireCase) wireRun(t *testing.T, cfg Config) ([]byte, []obs.CounterSnapshot) {
	t.Helper()
	r := NewRunner(cfg)
	res, err := c.run(context.Background(), r)
	if err != nil {
		t.Fatalf("%s run: %v", c.name, err)
	}
	return wireBytes(t, res), c.outcomeCounters(r)
}

// outcomeCounters selects the mode's outcome counters from a runner.
func (c wireCase) outcomeCounters(r *Runner) []obs.CounterSnapshot {
	var out []obs.CounterSnapshot
	for _, cs := range r.Metrics().Counters {
		if strings.HasPrefix(cs.Name, c.counters) {
			out = append(out, cs)
		}
	}
	return out
}

func wireBytes(t *testing.T, res any) []byte {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal wire result: %v", err)
	}
	return data
}

// TestVersionsResume is the kill-point matrix of both wire journals:
// interrupt at several append counts, resume, and require the matrix
// and the outcome counters of a clean run.
func TestVersionsResume(t *testing.T) {
	for _, c := range wireCases {
		t.Run(c.name, func(t *testing.T) {
			limit := robustLimit(c.limit)
			clean, cleanCounters := c.wireRun(t, Config{Limit: limit, Workers: 4})
			if len(cleanCounters) == 0 {
				t.Fatal("clean run folded no outcome counters")
			}
			for _, killAt := range []int{1, 5, -1} {
				dir := t.TempDir()
				ctx, cancel := context.WithCancel(context.Background())
				cfg := Config{Limit: limit, Workers: 4, Checkpoint: dir}
				if killAt > 0 {
					cfg.checkpointProbe = func(appended int) {
						if appended == killAt {
							cancel()
						}
					}
				}
				_, err := c.run(ctx, NewRunner(cfg))
				cancel()
				// The engine checks the context after the final flush, so a
				// kill point the journal reached always interrupts the run.
				if interrupted := err != nil; interrupted != (killAt > 0) {
					t.Fatalf("checkpointed run (killAt=%d): err = %v", killAt, err)
				}

				r := NewRunner(Config{Limit: limit, Workers: 4, Checkpoint: dir, Resume: true})
				res, err := c.run(context.Background(), r)
				if err != nil {
					t.Fatalf("resume (killAt=%d): %v", killAt, err)
				}
				if r.Obs().Counter("journal.cells.resumed").Value() == 0 {
					t.Errorf("resume (killAt=%d) replayed no journaled cell", killAt)
				}
				resumed, counters := wireBytes(t, res), c.outcomeCounters(r)
				if string(resumed) != string(clean) {
					t.Errorf("resumed matrix (killAt=%d) differs from clean run", killAt)
				}
				if !reflect.DeepEqual(counters, cleanCounters) {
					t.Errorf("resumed counters (killAt=%d) = %+v, clean run %+v", killAt, counters, cleanCounters)
				}
			}
		})
	}
}

// TestVersionsResumeRefusesDrift: a wire journal written under a
// different configuration — another limit for versions, another fault
// catalog for faults — is refused, not silently merged.
func TestVersionsResumeRefusesDrift(t *testing.T) {
	for _, c := range wireCases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Limit: 4, Workers: 2, Checkpoint: dir}
			if _, err := c.run(context.Background(), c.drifted(cfg)); err != nil {
				t.Fatalf("seed run: %v", err)
			}
			cfg.Resume = true
			_, err := c.run(context.Background(), NewRunner(cfg))
			if err == nil || !strings.Contains(err.Error(), "different campaign configuration") {
				t.Errorf("drifted resume error = %v, want fingerprint refusal", err)
			}
		})
	}
}

// TestVersionsShardMerge: two shard workers journal their slices, the
// coordinator merges, and the merged matrix and outcome counters equal
// a single-process run — path collisions included, since the
// coordinator deploys like a run. The coordinator exchanges nothing.
func TestVersionsShardMerge(t *testing.T) {
	for _, c := range wireCases {
		t.Run(c.name, func(t *testing.T) {
			limit := robustLimit(c.limit - 3)
			const n = 2
			base := t.TempDir()
			dirs := make([]string, n)
			for i := 0; i < n; i++ {
				dirs[i] = filepath.Join(base, "shard", string(rune('a'+i)))
				cfg := Config{Limit: limit, Workers: 2, Checkpoint: dirs[i],
					Shard: ShardSpec{Index: i, Count: n}}
				if _, err := c.run(context.Background(), NewRunner(cfg)); err != nil {
					t.Fatalf("shard %d: %v", i, err)
				}
			}
			coord := New(WithLimit(limit))
			merged, err := c.merge(context.Background(), coord, dirs)
			if err != nil {
				t.Fatalf("merge: %v", err)
			}
			full, fullCounters := c.wireRun(t, Config{Limit: limit, Workers: 4})
			if got := wireBytes(t, merged); string(got) != string(full) {
				t.Errorf("merged matrix differs from single-process run:\nmerged: %s\nfull:   %s", got, full)
			}
			if got := c.outcomeCounters(coord); !reflect.DeepEqual(got, fullCounters) {
				t.Errorf("merged counters = %+v, single-process run %+v", got, fullCounters)
			}
			for _, name := range []string{"faultinject.injected", "transport.attempts"} {
				if got := coord.Obs().Counter(name).Value(); got != 0 {
					t.Errorf("merge coordinator %s = %d, want 0 (every cell replays)", name, got)
				}
			}

			// Merge guards: a drifted configuration is refused by
			// fingerprint, and a coordinator cannot itself be sharded.
			if _, err := c.merge(context.Background(), New(WithLimit(limit+1)), dirs); err == nil {
				t.Error("drifted merge configuration not refused")
			}
			if _, err := c.merge(context.Background(), c.drifted(Config{Limit: limit}), dirs); err == nil {
				t.Error("merge under a drifted store fingerprint not refused")
			}
			if _, err := c.merge(context.Background(), New(WithLimit(limit), WithShard(0, n)), dirs); err == nil {
				t.Error("sharded coordinator not refused")
			}
		})
	}
}

// TestVersionsMergeRefusesIncomplete: a shard journal without its
// completion sentinels cannot be merged.
func TestVersionsMergeRefusesIncomplete(t *testing.T) {
	for _, c := range wireCases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := Config{Limit: 6, Workers: 2, Checkpoint: dir}
			cfg.checkpointProbe = func(appended int) {
				if appended == 1 {
					cancel()
				}
			}
			if _, err := c.run(ctx, NewRunner(cfg)); err == nil {
				// The tiny run may outrace the cancel; only an actually
				// interrupted journal exercises the guard.
				t.Skip("run completed before the kill point")
			}
			_, err := c.merge(context.Background(), New(WithLimit(6)), []string{dir})
			if err == nil || !strings.Contains(err.Error(), "resume the shard") {
				t.Errorf("incomplete merge error = %v, want completion refusal", err)
			}
		})
	}
}
