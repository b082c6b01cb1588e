package main

import (
	"math"
	"time"

	"repro/internal/stats"
)

// loghist is a fixed-size latency histogram with 0.5 % logarithmic bins from
// 1 µs to 10 s. The generator keeps one per connection per slice instead of
// raw samples, so its own memory stays constant and out of live_heap_mib's
// way. Not safe for concurrent use.
type loghist struct {
	bins  [histBins]uint32
	count int64
	max   time.Duration
}

const (
	histMinNS = 1e3
	histRatio = 1.005
	histBins  = 3234 // ceil(ln(1e10/1e3)/ln(1.005)) + 2
)

var histLogRatio = math.Log(histRatio)

func (h *loghist) add(d time.Duration) {
	i := 0
	if ns := float64(d); ns > histMinNS {
		i = int(math.Log(ns/histMinNS)/histLogRatio) + 1
		if i >= histBins {
			i = histBins - 1
		}
	}
	h.bins[i]++
	h.count++
	if d > h.max {
		h.max = d
	}
}

func (h *loghist) merge(o *loghist) {
	for i, n := range o.bins {
		h.bins[i] += n
	}
	h.count += o.count
	if o.max > h.max {
		h.max = o.max
	}
}

// quantileUS reports the q-quantile in microseconds: the geometric middle of
// the bin the rank falls in (so at most 0.25 % off), never above the maximum
// seen. An empty histogram reports 0.
func (h *loghist) quantileUS(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(q*float64(h.count-1)) + 1
	var cum int64
	for i, n := range h.bins {
		cum += int64(n)
		if cum >= rank {
			ns := histMinNS
			if i > 0 {
				ns = histMinNS * math.Exp((float64(i)-0.5)*histLogRatio)
			}
			if ns > float64(h.max) {
				ns = float64(h.max)
			}
			return ns / 1e3
		}
	}
	return float64(h.max) / 1e3
}

// medianUS is the median of timed samples, in microseconds.
func medianUS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e3
	}
	return stats.Median(xs)
}
