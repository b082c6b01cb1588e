package main

import (
	"os"
	"strconv"
	"strings"
)

// stealSample is the machine's cumulative CPU accounting from /proc/stat, in
// clock ticks: the hypervisor's steal column and the sum of all columns.
type stealSample struct{ steal, total float64 }

func readSteal() (s stealSample) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return s
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	for i, f := range fields {
		if i == 0 {
			continue
		}
		v, _ := strconv.ParseFloat(f, 64)
		if i <= 8 { // guest time is already inside user
			s.total += v
		}
		if i == 8 {
			s.steal = v
		}
	}
	return s
}

// stealPct is the share of the machine's CPU time, over the run, that the
// hypervisor gave to someone else. A run with a high figure measured the
// neighbours; -selfcheck refuses it.
func stealPct(before, after stealSample) float64 {
	if d := after.total - before.total; d > 0 {
		return 100 * (after.steal - before.steal) / d
	}
	return 0
}
