package faults

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestSurvivorsNameTheSpawnSite(t *testing.T) {
	before := liveGoroutines()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-stop
	}()
	leaked := survivors(before, 4)
	close(stop)
	<-done
	if len(leaked) != 1 {
		t.Fatalf("survivors = %q, want exactly the blocked goroutine", leaked)
	}
	for _, want := range []string{"goroutine ", "created by fivealarms/internal/faults.TestSurvivorsNameTheSpawnSite", "goroutines_test.go:"} {
		if !strings.Contains(leaked[0], want) {
			t.Errorf("survivor %q lacks %q", leaked[0], want)
		}
	}
}

func TestCheckGoroutinesWaitsForExit(t *testing.T) {
	check := CheckGoroutines(t)
	release := make(chan struct{})
	go func() { <-release }()
	time.AfterFunc(20*time.Millisecond, func() { close(release) })
	check() // the goroutine exits within the bounded wait: no failure
}

func TestWithGOMAXPROCSRestores(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	WithGOMAXPROCS(prev+3, func() {
		if got := runtime.GOMAXPROCS(0); got != prev+3 {
			t.Errorf("GOMAXPROCS inside = %d, want %d", got, prev+3)
		}
	})
	if got := runtime.GOMAXPROCS(0); got != prev {
		t.Errorf("GOMAXPROCS after = %d, want %d restored", got, prev)
	}
}
