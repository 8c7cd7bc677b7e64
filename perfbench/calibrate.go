package main

import (
	"runtime"
	"sort"
	"time"
)

// Host-speed calibration. The hosts this benchmark runs on are shared
// virtual machines whose speed drifts within minutes as their
// neighbours' load comes and goes, and unevenly: on a 2-vCPU Xeon VM the
// slow stretches made memory-bound work (random walks over 2–16 MB
// tables) up to 1.5× slower and allocation and collection 1.1–1.3×
// slower, while cache-resident arithmetic did not move. So every timed
// operation follows one run of a fixed calibration workload made of what
// the operations spend their time on — branchy integer work, allocation
// and collection, all in the standard library and the runtime — and a
// run reports its host times scaled to the reference host:
//
//	reference time = measured time × calRef / median calibration time
//
// Over six 30-second runs of sim in such a stretch this cut the spread
// of the run medians (interquartile range over median) from 0.20 to
// 0.07; a random walk over the old 16 MB table did worse. A change to the
// simulator moves the operations and never the calibration, so a
// comparison of two versions on one host reads the same either way; host
// drift moves both and cancels.

// calRef is the calibration's median time on the reference host, the
// 2-vCPU Intel Xeon VM the benchmark was tuned on, when lightly loaded.
// It only sets the scale of the reported times.
const calRef = 0.026

const (
	calSort  = 1 << 16 // pseudo-random integers sorted
	calNodes = 200_000 // small objects allocated, then collected while live
)

type calNode struct {
	next *calNode
	v    [6]uint64
}

var calSink uint64

// calibrated runs the calibration workload and returns the seconds it
// took, then collects the heap, so the next timed section starts on a
// heap holding only what the program itself keeps.
func calibrated() float64 {
	start := time.Now()
	x := calSink | 1
	xs := make([]int, calSort)
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = int(x >> 1)
	}
	sort.Ints(xs)
	var head *calNode
	for i := 0; i < calNodes; i++ {
		head = &calNode{next: head}
		head.v[i%len(head.v)] = uint64(xs[i%calSort])
	}
	runtime.GC() // marks the live list
	el := time.Since(start).Seconds()
	calSink = head.v[0] + x
	head = nil
	runtime.GC()
	return el
}
