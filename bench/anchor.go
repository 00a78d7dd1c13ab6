package main

import "time"

// The anchor is a fixed unit of host work the benchmark times after
// each sample, so that times can be rescaled to a fixed host speed: the
// samples of one quantity of a pass (its builds, its first runs, its
// replications) are multiplied by anchorNominal over the mean duration
// of the anchors timed after them. The shared VMs this benchmark runs on
// change speed by 20-100% over tens of seconds, and the simulator and
// this loop slow down together. Over ten 15-second runs per workload on
// the baseline host, each with another seed, the median replication's
// quartiles spread by 5-14% of the median as measured and by 2-11%
// rescaled; in a noisier hour, by 11-24% and 5-14%. Rescaling each
// sample by the anchors right after it did better on the short Figure 7
// and churn replications but worse on the long ones: one vCPU was often
// much slower than the other, and a few milliseconds of anchor sample
// only the one they ran on. The anchor is benchmark code and allocates
// nothing, so no change to the simulator, its heap or its garbage
// collection can move it.

// anchorKeys is the size of an anchor table: 32k entries, a few hundred
// kilobytes of buckets with no pointers in them.
const anchorKeys = 1 << 15

var (
	anchorTable = func() map[uint64]uint64 {
		m := make(map[uint64]uint64, anchorKeys)
		for k := uint64(0); k < anchorKeys; k++ {
			m[k] = k
		}
		return m
	}()
	anchorSink uint64
)

// anchorOp does 40 000 pseudo-random updates and lookups on the full,
// never-growing anchor table: the hashing and cache-missing loads the
// simulator's own hot paths are made of.
func anchorOp() {
	x := uint64(88172645463325252)
	for i := 0; i < 40_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x & (anchorKeys - 1)
		anchorTable[k] += x
		anchorSink += anchorTable[k^1]
	}
}

// anchorNominal is anchorOp's mean duration on the baseline host
// (README.md), so that rescaled times read as that host's.
const anchorNominal = 900 * time.Microsecond

// timing is one timed quantity of a pass: its samples, in seconds as
// measured, and the anchor operations timed right after them — one per
// sample, plus one per 25 ms of it, at most 16 — so that the anchors
// sample the host's speed while that quantity was being measured.
type timing struct{ samples, anchors []float64 }

func (t *timing) add(d time.Duration) {
	t.samples = append(t.samples, d.Seconds())
	n := min(1+int(d/(25*time.Millisecond)), 16)
	for i := 0; i < n; i++ {
		start := time.Now()
		anchorOp()
		t.anchors = append(t.anchors, time.Since(start).Seconds())
	}
}

// scale is the factor that rescales the samples to nominal anchor
// speed: anchorNominal over the mean anchor duration.
func (t *timing) scale() float64 {
	var sum float64
	for _, a := range t.anchors {
		sum += a
	}
	return ratio(anchorNominal.Seconds()*float64(len(t.anchors)), sum)
}
