package fivealarms

// Fault containment for the sharded build path: every sharded task —
// the season simulations, the partition plan, each per-shard overlay
// and mask, the stream merge — is chaos-tested with injected errors and
// panics under both schedules. A failed shard must skip its dependents
// and fail the build; a partial sharded Study never escapes, and no
// goroutine leaks.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"fivealarms/internal/faults"
	"fivealarms/internal/pipeline"
)

const chaosShards = 3

// shardedTaskNames discovers the sharded build graph's task list with a
// recording hook (same discovery pattern as buildTaskNames) and keeps
// only the tasks the sharded path adds.
func shardedTaskNames(t *testing.T) []string {
	t.Helper()
	var names []string
	installHook(t, func(task string) error {
		names = append(names, task)
		return nil
	})
	if _, err := buildAt(1, WithShards(chaosShards)); err != nil {
		t.Fatal(err)
	}
	buildFaultHook = nil
	var sharded []string
	for _, n := range names {
		if strings.HasPrefix(n, "shard") || n == "history" || n == "season2019" {
			sharded = append(sharded, n)
		}
	}
	// 2 simulations + plan + merge + overlay/mask per shard.
	if want := 4 + 2*chaosShards; len(sharded) != want {
		t.Fatalf("discovered %d sharded tasks %v, want %d", len(sharded), sharded, want)
	}
	return sharded
}

// TestShardedChaosPanicEveryTask injects a panic into every sharded
// task, one at a time, in both schedules: the build must surface a
// pipeline.PanicError naming the task, return a nil Study, and leak no
// goroutines.
func TestShardedChaosPanicEveryTask(t *testing.T) {
	names := shardedTaskNames(t)
	for _, procs := range schedules {
		for _, victim := range names {
			check := faults.CheckGoroutines(t)
			in := faults.New(1)
			in.PanicOn(victim, nil)
			installHook(t, in.Hook())
			s, err := buildAt(procs, WithShards(chaosShards))
			if s != nil {
				t.Fatalf("procs=%d victim=%s: partially built sharded Study escaped", procs, victim)
			}
			var pe *pipeline.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("procs=%d victim=%s: err = %v, want pipeline.PanicError", procs, victim, err)
			}
			if pe.Task != victim {
				t.Errorf("procs=%d victim=%s: PanicError.Task = %q", procs, victim, pe.Task)
			}
			check()
		}
	}
}

// TestShardedChaosErrorEveryTask injects a plain error into every
// sharded task: the injected sentinel must survive the wrap chain and
// the error must name the failed task.
func TestShardedChaosErrorEveryTask(t *testing.T) {
	names := shardedTaskNames(t)
	for _, procs := range schedules {
		for _, victim := range names {
			in := faults.New(1)
			in.ErrorOn(victim, nil)
			installHook(t, in.Hook())
			s, err := buildAt(procs, WithShards(chaosShards))
			if s != nil || err == nil {
				t.Fatalf("procs=%d victim=%s: s=%v err=%v", procs, victim, s != nil, err)
			}
			if !errors.Is(err, faults.ErrInjected) {
				t.Errorf("procs=%d victim=%s: injected sentinel lost: %v", procs, victim, err)
			}
			if !strings.Contains(err.Error(), `"`+victim+`"`) {
				t.Errorf("procs=%d victim=%s: error does not name the task: %v", procs, victim, err)
			}
		}
	}
}

// TestShardedChaosUpstreamFailureSkipsShards: a failure in an upstream
// layer (the transceiver snapshot) must skip every shard task — the
// per-shard builders must never run against missing inputs.
func TestShardedChaosUpstreamFailureSkipsShards(t *testing.T) {
	for _, procs := range schedules {
		var mu sync.Mutex
		var ran []string
		in := faults.New(1)
		in.ErrorOn("cellnet", nil)
		inner := in.Hook()
		installHook(t, func(task string) error {
			mu.Lock()
			ran = append(ran, task)
			mu.Unlock()
			return inner(task)
		})
		s, err := buildAt(procs, WithShards(chaosShards))
		if s != nil || !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("procs=%d: s=%v err=%v", procs, s != nil, err)
		}
		mu.Lock() // the graph run has joined; lock for the race detector's sake
		for _, task := range ran {
			if strings.HasPrefix(task, "shard") {
				t.Errorf("procs=%d: task %q ran despite its failed upstream", procs, task)
			}
		}
		mu.Unlock()
	}
}

// TestShardedBuildCancellation: a context cancelled while the sharded
// graph runs stops scheduling, surfaces ctx.Err(), and returns a nil
// Study in both schedules.
func TestShardedBuildCancellation(t *testing.T) {
	for _, procs := range schedules {
		ctx, cancel := context.WithCancel(context.Background())
		installHook(t, func(task string) error {
			if task == "shards/plan" {
				cancel()
			}
			return nil
		})
		s, err := buildAt(procs, WithShards(chaosShards), WithContext(ctx))
		if s != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("procs=%d: s=%v err=%v", procs, s != nil, err)
		}
		buildFaultHook = nil
		cancel()
	}
}

// TestShardedChaosCleanRunIdentical: an inert chaos harness on the
// sharded graph must not perturb results relative to the monolithic
// uninstrumented build.
func TestShardedChaosCleanRunIdentical(t *testing.T) {
	in := faults.New(5) // no rules: fires nothing
	installHook(t, in.Hook())
	instrumented, err := buildAt(4, WithShards(chaosShards))
	if err != nil {
		t.Fatal(err)
	}
	buildFaultHook = nil
	clean := NewStudy(stressCfg)
	a, b := analysisFingerprints(instrumented), analysisFingerprints(clean)
	for name, want := range b {
		if a[name] != want {
			t.Errorf("%s differs with inert chaos harness on the sharded graph", name)
		}
	}
	if len(in.Events()) != 0 {
		t.Errorf("inert injector fired: %v", in.Events())
	}
}
