package exp

import (
	"os"
	"strings"
	"testing"
)

// stripTable4 removes the table-4 block from a full-suite rendering: its
// lease-operation latencies time the real host clock and legitimately vary
// between any two runs. Everything else must be byte-stable.
func stripTable4(s string) string {
	lines := strings.Split(s, "\n")
	out := make([]string, 0, len(lines))
	skipping := false
	for _, line := range lines {
		if strings.HasPrefix(line, "== ") {
			skipping = strings.HasPrefix(line, "== table-4:")
		}
		if !skipping {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestExperimentsOutputGolden is the kernel-equivalence guarantee for the
// committed artefact: regenerating the full (non-quick) suite must
// reproduce experiments_output.txt at the repo root byte for byte, except
// the host-clock table-4 block. Any change to the event kernel or the
// power meter that alters simulation results — event ordering, integration
// boundaries, sampling — shows up here as a diff against the snapshot.
func TestExperimentsOutputGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite golden regeneration in short mode")
	}
	raw, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatalf("reading committed snapshot: %v", err)
	}
	var b strings.Builder
	for _, res := range RunSelected(Runners(false)) {
		// Mirror leasesim experiments: each artefact rendered then Println'd.
		b.WriteString(res.String())
		b.WriteString("\n")
	}
	want := stripTable4(string(raw))
	got := stripTable4(b.String())
	if got != want {
		wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
		for i := range wl {
			if i >= len(gl) || wl[i] != gl[i] {
				regen := gl[i:]
				if len(regen) > 3 {
					regen = regen[:3]
				}
				t.Fatalf("regenerated output diverges from experiments_output.txt at line %d:\n  snapshot: %q\n  regen:    %v\nif the change is intentional, refresh the snapshot: go run ./cmd/leasesim experiments > experiments_output.txt",
					i+1, wl[i], regen)
			}
		}
		t.Fatalf("regenerated output is longer than experiments_output.txt (%d vs %d lines); refresh the snapshot if intentional",
			len(gl), len(wl))
	}
}
