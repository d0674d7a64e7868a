package pow

import (
	"os"
	"strings"
	"testing"
)

// TestKernelLaneChosenByCPUID holds the lane choice to the host's
// features as Linux reports them: the kernel lane exactly when
// /proc/cpuinfo lists sha_ni, ssse3 and sse4_1.
func TestKernelLaneChosenByCPUID(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to check CPUID against: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, value, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		flags := map[string]bool{}
		for _, f := range strings.Fields(value) {
			flags[f] = true
		}
		if want := flags["sha_ni"] && flags["ssse3"] && flags["sse4_1"]; kernelHere != want {
			t.Fatalf("kernel lane chosen = %v; /proc/cpuinfo has sha_ni %v, ssse3 %v, sse4_1 %v",
				kernelHere, flags["sha_ni"], flags["ssse3"], flags["sse4_1"])
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
