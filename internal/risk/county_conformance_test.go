package risk

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"fivealarms/internal/cellnet"
	"fivealarms/internal/census"
	"fivealarms/internal/conus"
	"fivealarms/internal/faults"
	"fivealarms/internal/pipeline"
	"fivealarms/internal/whp"
)

// eagerJoin is New's loop before the county join became lazy: every
// transceiver's class and county over GOMAXPROCS contiguous ranges of
// the fleet.
func eagerJoin(w *conus.World, m *whp.Map, d *cellnet.Dataset, c *census.Counties) (classOf []whp.Class, countyOf []int32) {
	classOf = make([]whp.Class, d.Len())
	countyOf = make([]int32, d.Len())
	pipeline.Bands(pipeline.BandFunc(func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			classOf[i] = m.ClassAt(d.T[i].XY)
			countyOf[i] = int32(c.CountyAt(d.T[i].XY))
		}
	}), d.Len(), runtime.GOMAXPROCS(0))
	return classOf, countyOf
}

// TestCountyJoinDeferredConformance shows New leaves the county join to
// its first reader: the cache is still empty when New returns.
func TestCountyJoinDeferredConformance(t *testing.T) {
	a := New(testWorld, testWHP, testData, testCounties)
	marker := []int32{-7}
	if got := a.county.Get(func() []int32 { return marker }); &got[0] != &marker[0] {
		t.Fatal("New joined the counties")
	}
}

// TestCountyJoinConformance pins the lazy class and county caches to
// the eager loop at every index, at GOMAXPROCS 1, 2 and 4.
func TestCountyJoinConformance(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		faults.WithGOMAXPROCS(procs, func() {
			wantClass, wantCounty := eagerJoin(testWorld, testWHP, testData, testCounties)
			a := New(testWorld, testWHP, testData, testCounties)
			county := a.countyOf()
			for i := range wantCounty {
				if a.classOf[i] != wantClass[i] || county[i] != wantCounty[i] {
					t.Fatalf("GOMAXPROCS %d, transceiver %d: class %v county %d, eager loop %v %d",
						procs, i, a.classOf[i], county[i], wantClass[i], wantCounty[i])
				}
			}
		})
	}
}

// TestCountyJoinSharedConformance races the population analyses on a
// fresh analyzer: they share one join, memoized for every later
// reader, and answer as the warm test analyzer does.
func TestCountyJoinSharedConformance(t *testing.T) {
	wantImpact, wantMetro := testAnalyzer.PopulationImpact(), testAnalyzer.MetroImpact()
	a := New(testWorld, testWHP, testData, testCounties)
	const callers = 8
	seen := make([]*int32, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(callers)
	for g := 0; g < callers; g++ {
		go func() {
			defer wg.Done()
			<-start
			if g%2 == 0 {
				if got := a.PopulationImpact(); *got != *wantImpact {
					t.Errorf("caller %d: PopulationImpact = %+v, want %+v", g, *got, *wantImpact)
				}
			} else if got := a.MetroImpact(); !reflect.DeepEqual(got, wantMetro) {
				t.Errorf("caller %d: MetroImpact = %+v, want %+v", g, got, wantMetro)
			}
			seen[g] = &a.countyOf()[0]
		}()
	}
	close(start)
	wg.Wait()
	empty := false
	joined := a.county.Get(func() []int32 { empty = true; return nil })
	if empty {
		t.Fatal("the concurrent callers left the county cache empty")
	}
	for g, p := range seen {
		if p != &joined[0] {
			t.Fatalf("caller %d read a county cache other than the memoized one", g)
		}
	}
}
