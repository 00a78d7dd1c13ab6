package experiments

// Golden equivalence tests for the scenario-engine refactor.
//
// The entries of testdata/golden.json were recorded against the
// pre-refactor RunTwoNode/RunFourNode implementations (the hand-rolled
// topology builders). After the refactor the presets compile to
// scenario.Spec and run through scenario.Run; these tests prove the
// outputs stayed bit-identical — every float and every counter — at
// fixed seeds.

import (
	"encoding/json"
	"testing"
	"time"

	"adhocsim/internal/golden"
	"adhocsim/internal/phy"
)

// TestMain checks the package's recorded results against
// testdata/golden.json; see internal/golden for -update.
func TestMain(m *testing.M) { golden.Main(m) }

const goldenHorizon = 2 * time.Second

// goldenTwoNodeCases enumerates the TwoNode configurations pinned by the
// golden table: every transport × access-mode cell plus a low-rate,
// long-distance point.
func goldenTwoNodeCases() map[string]TwoNode {
	return map[string]TwoNode{
		"udp-basic-11": {Rate: phy.Rate11, Transport: UDP, Duration: goldenHorizon, Seed: 42},
		"udp-rts-11":   {Rate: phy.Rate11, Transport: UDP, RTSCTS: true, Duration: goldenHorizon, Seed: 42},
		"tcp-basic-11": {Rate: phy.Rate11, Transport: TCP, Duration: goldenHorizon, Seed: 42},
		"tcp-rts-11":   {Rate: phy.Rate11, Transport: TCP, RTSCTS: true, Duration: goldenHorizon, Seed: 42},
		"udp-basic-2-far": {
			Rate: phy.Rate2, Distance: 50, Transport: UDP,
			PacketSize: 1024, Duration: goldenHorizon, Seed: 7,
		},
	}
}

// goldenFourNodeCases enumerates the FourNode configurations pinned by
// the golden table: the Figure 7/9 asymmetric line, the Figure 11
// symmetric scenario, a TCP panel, and a default-profile run.
func goldenFourNodeCases() map[string]FourNode {
	testbed := phy.TestbedProfile()
	return map[string]FourNode{
		"fig7-udp-basic": {
			Rate: phy.Rate11, D12: 25, D23: 82.5, D34: 25,
			Transport: UDP, Duration: goldenHorizon, Seed: 42, Profile: testbed,
		},
		"fig9-udp-rts": {
			Rate: phy.Rate2, D12: 25, D23: 92.5, D34: 25,
			Transport: UDP, RTSCTS: true, Duration: goldenHorizon, Seed: 42, Profile: testbed,
		},
		"fig11-tcp-basic": {
			Rate: phy.Rate11, D12: 25, D23: 62.5, D34: 25,
			Transport: TCP, Session2Reversed: true,
			Duration: goldenHorizon, Seed: 42, Profile: testbed,
		},
		"default-profile-udp": {
			Rate: phy.Rate11, D12: 25, D23: 82.5, D34: 25,
			Transport: UDP, Duration: goldenHorizon, Seed: 9,
		},
	}
}

// runGolden runs the recorded cases and checks each result's JSON
// against the entry named prefix/case.
func runGolden[C any, R any](t *testing.T, prefix string, cases map[string]C, run func(C) R) {
	t.Helper()
	for name, cfg := range cases {
		buf, err := json.Marshal(run(cfg))
		if err != nil {
			t.Fatal(err)
		}
		golden.Check(t, prefix+"/"+name, buf)
	}
}

// TestGoldenTwoNode proves RunTwoNode reproduces the pre-refactor
// results bit-for-bit at fixed seeds.
func TestGoldenTwoNode(t *testing.T) {
	runGolden(t, "two-node", goldenTwoNodeCases(), RunTwoNode)
}

// TestGoldenFourNode proves RunFourNode reproduces the pre-refactor
// results bit-for-bit at fixed seeds.
func TestGoldenFourNode(t *testing.T) {
	runGolden(t, "four-node", goldenFourNodeCases(), RunFourNode)
}
