package fivealarms_test

import (
	"fmt"

	"fivealarms"
	"fivealarms/internal/whp"
)

// The quickstart: build a small world and ask the headline question.
func Example() {
	study, err := fivealarms.NewStudyWithOptions(
		fivealarms.WithSeed(42),
		fivealarms.WithCellSizeM(40000), // coarse grid: fast enough for documentation
		fivealarms.WithTransceivers(5000),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	overlay := study.WHPOverlay()
	// The structural result is stable even at toy scale: moderate
	// exposure outweighs high outweighs very-high.
	fmt.Println(overlay.ByClass[whp.Moderate] > overlay.ByClass[whp.High])
	fmt.Println(overlay.ByClass[whp.High] > overlay.ByClass[whp.VeryHigh])
	// Output:
	// true
	// true
}

// The validating constructor: functional options instead of a Config
// literal, with malformed configurations rejected instead of silently
// clamped. The returned Study memoizes its derived layers and is safe
// for concurrent use.
func ExampleNewStudyWithOptions() {
	study, err := fivealarms.NewStudyWithOptions(
		fivealarms.WithSeed(42),
		fivealarms.WithCellSizeM(40000),
		fivealarms.WithTransceivers(5000),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	overlay := study.WHPOverlay()
	fmt.Println(overlay.AtRisk() > 0)

	// A negative raster resolution is an error, not a silent default.
	_, err = fivealarms.NewStudyWithOptions(fivealarms.WithCellSizeM(-1))
	fmt.Println(err != nil)
	// Output:
	// true
	// true
}

// Reproducing Table 2: who operates the most at-risk infrastructure.
func ExampleStudy_Table2() {
	study, err := fivealarms.NewStudyWithOptions(
		fivealarms.WithSeed(42), fivealarms.WithCellSizeM(40000), fivealarms.WithTransceivers(5000),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	rows := study.Table2()
	fmt.Println(rows[0].Provider) // the paper's Table 2 leads with AT&T
	// Output:
	// AT&T
}

// Simulating the fall-2019 PSPS event (Figure 5).
func ExampleStudy_CaseStudy() {
	study, err := fivealarms.NewStudyWithOptions(
		fivealarms.WithSeed(42), fivealarms.WithCellSizeM(40000), fivealarms.WithTransceivers(5000),
		fivealarms.WithFiresPerSeason(5),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	cs := study.CaseStudy()
	// The event peaks on the fourth reporting day, 28 October.
	fmt.Println(cs.Series.Labels[cs.PeakDay])
	// Output:
	// Oct 28
}
