package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"astro/internal/campaign"
	"astro/internal/ir"
	"astro/internal/workloads"
)

var updateHashes = flag.Bool("update", false, "rewrite testdata/module_hashes.golden")

// goldenPrograms is what module_hashes.golden covers: every built-in
// registry workload, then the benchmark grid's generated programs (120
// per workload seed, program seeds 1000, 2000 and 3000).
func goldenPrograms(t *testing.T) []workloads.Spec {
	t.Helper()
	var specs []workloads.Spec
	for _, s := range workloads.All() {
		if s.Suite != "scenario" {
			specs = append(specs, s)
		}
	}
	for _, seed := range []int64{1000, 2000, 3000} {
		m := Matrix{ProgramCount: 120, ProgramSeed: seed}
		for _, pp := range m.programParams() {
			s, err := Generate(pp)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, s)
		}
	}
	return specs
}

// TestModuleHashesGolden pins the IR bytes every compiled program hashes
// to. Job.Key and TrainSpec.Key both start from these hashes, so a front
// end or encoder change that moves one byte re-keys every banked result.
// It also checks that campaign.ModuleHash is sha256 over ir.Encode.
// Regenerate (only for a deliberate IR change) with
// `go test ./internal/scenario -run ModuleHashesGolden -update`.
func TestModuleHashesGolden(t *testing.T) {
	var sb strings.Builder
	for _, s := range goldenPrograms(t) {
		m, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(ir.Encode(m))
		h := hex.EncodeToString(sum[:])
		if got := campaign.ModuleHash(m); got != h {
			t.Errorf("%s: campaign.ModuleHash = %s, sha256(ir.Encode) = %s", s.Name, got, h)
		}
		fmt.Fprintf(&sb, "%s %s\n", s.Name, h)
	}
	golden := filepath.Join("testdata", "module_hashes.golden")
	if *updateHashes {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create)", err)
	}
	gotLines := strings.Split(sb.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d module hashes, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("module hash %d:\n got  %s\n want %s", i, gotLines[i], wantLines[i])
		}
	}
}
