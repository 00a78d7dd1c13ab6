package transport

import (
	"fmt"
	"testing"

	"adhocsim/internal/network"
	"adhocsim/internal/sim"
)

// TestISSKeyMatchesFormattedName pins the ISN stream key to the hash of
// its fmt-built name, so no station's ISN stream moved when the name
// stopped being formatted.
func TestISSKeyMatchesFormattedName(t *testing.T) {
	for _, id := range []uint32{1, 255, 256, 4095, 65535, 65536, network.MaxStationID} {
		a := network.StationAddr(id)
		name := fmt.Sprintf("tcp.iss.%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
		if got, want := issKey(a), sim.KeyFor(name); got != want {
			t.Errorf("station %d: issKey = %#x, want KeyFor(%q) = %#x", id, got, name, want)
		}
	}
}
