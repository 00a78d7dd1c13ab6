package phy

import (
	"testing"
	"testing/quick"
	"time"
)

func TestRateValues(t *testing.T) {
	tests := []struct {
		rate Rate
		mbps float64
		bps  int64
	}{
		{Rate1, 1, 1_000_000},
		{Rate2, 2, 2_000_000},
		{Rate5_5, 5.5, 5_500_000},
		{Rate11, 11, 11_000_000},
	}
	for _, tt := range tests {
		if got := tt.rate.Mbps(); got != tt.mbps {
			t.Errorf("%v.Mbps() = %v, want %v", tt.rate, got, tt.mbps)
		}
		if got := tt.rate.BitsPerSecond(); got != tt.bps {
			t.Errorf("%v.BitsPerSecond() = %v, want %v", tt.rate, got, tt.bps)
		}
		if !tt.rate.Valid() {
			t.Errorf("%v.Valid() = false", tt.rate)
		}
		if got, ok := RateFromMbps(tt.mbps); got != tt.rate || !ok {
			t.Errorf("RateFromMbps(%v) = %v, %v; want %v, true", tt.mbps, got, ok, tt.rate)
		}
	}
	if Rate(42).Valid() {
		t.Error("Rate(42).Valid() = true")
	}
	for _, mbps := range []float64{0, 4.2, 5.55, 54} {
		if r, ok := RateFromMbps(mbps); ok {
			t.Errorf("RateFromMbps(%v) = %v, true; want false", mbps, r)
		}
	}
}

func TestRateIndexDense(t *testing.T) {
	seen := map[int]bool{}
	for i, r := range Rates {
		idx := r.Index()
		if idx != i {
			t.Errorf("%v.Index() = %d, want %d", r, idx, i)
		}
		if seen[idx] {
			t.Errorf("duplicate index %d", idx)
		}
		seen[idx] = true
	}
}

func TestAirtimeExactValues(t *testing.T) {
	tests := []struct {
		rate Rate
		bits int
		want time.Duration
	}{
		{Rate1, 1000, time.Millisecond},
		{Rate2, 1000, 500 * time.Microsecond},
		{Rate11, 1100, 100 * time.Microsecond},
		{Rate1, PLCPBits, 192 * time.Microsecond}, // PLCP check
		{Rate5_5, 55, 10 * time.Microsecond},
		{Rate5_5, 1, 182 * time.Nanosecond}, // 181.81.. rounds to 182
	}
	for _, tt := range tests {
		if got := tt.rate.Airtime(tt.bits); got != tt.want {
			t.Errorf("%v.Airtime(%d) = %v, want %v", tt.rate, tt.bits, got, tt.want)
		}
	}
}

// Property: airtime is monotone in bits and inversely ordered by rate.
func TestAirtimeMonotone(t *testing.T) {
	f := func(b uint16) bool {
		bits := int(b)
		for _, r := range Rates {
			if r.Airtime(bits+1) < r.Airtime(bits) {
				return false
			}
		}
		for i := 1; i < len(Rates); i++ {
			if Rates[i].Airtime(bits) > Rates[i-1].Airtime(bits) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestControlRate(t *testing.T) {
	tests := []struct {
		data, want Rate
	}{
		{Rate1, Rate1},
		{Rate2, Rate2},
		{Rate5_5, Rate2},
		{Rate11, Rate2},
	}
	for _, tt := range tests {
		if got := ControlRate(tt.data); got != tt.want {
			t.Errorf("ControlRate(%v) = %v, want %v", tt.data, got, tt.want)
		}
	}
}

func TestTable1Constants(t *testing.T) {
	// Straight from Table 1 of the paper.
	if SlotTime != 20*time.Microsecond {
		t.Errorf("SlotTime = %v", SlotTime)
	}
	if SIFS != 10*time.Microsecond {
		t.Errorf("SIFS = %v", SIFS)
	}
	if DIFS != 50*time.Microsecond {
		t.Errorf("DIFS = %v", DIFS)
	}
	if PLCPBits != 192 {
		t.Errorf("PLCPBits = %d", PLCPBits)
	}
	if PLCPTime != 192*time.Microsecond {
		t.Errorf("PLCPTime = %v (must be 9.6 slots at 1 Mbit/s)", PLCPTime)
	}
	if MACHeaderBits != 272 {
		t.Errorf("MACHeaderBits = %d", MACHeaderBits)
	}
	if ACKBits != 112 {
		t.Errorf("ACKBits = %d", ACKBits)
	}
	if CWMin != 32 || CWMax != 1024 {
		t.Errorf("CW = %d..%d", CWMin, CWMax)
	}
}

func TestFrameTimes(t *testing.T) {
	// ACK at 1 Mbit/s: 192 µs PLCP + 112 µs = 304 µs.
	if got := ACKTime(Rate1); got != 304*time.Microsecond {
		t.Errorf("ACKTime(1Mbps) = %v, want 304µs", got)
	}
	// ACK at 2 Mbit/s: 192 + 56 = 248 µs.
	if got := ACKTime(Rate2); got != 248*time.Microsecond {
		t.Errorf("ACKTime(2Mbps) = %v, want 248µs", got)
	}
	// Data, 512 B payload at 11 Mbit/s: 192 µs + (272+4096)/11 µs.
	want := PLCPTime + Rate11.Airtime(272+4096)
	if got := DataTime(Rate11, 512); got != want {
		t.Errorf("DataTime(11Mbps, 512) = %v, want %v", got, want)
	}
	if RTSTime(Rate2) >= RTSTime(Rate1) {
		t.Error("RTS at 2 Mbit/s should be shorter than at 1 Mbit/s")
	}
	if CTSTime(Rate2) != ACKTime(Rate2) {
		t.Error("CTS and ACK have equal length frames")
	}
}

func TestEIFS(t *testing.T) {
	// EIFS = SIFS + ACK@1Mbps + DIFS = 10 + 304 + 50 = 364 µs.
	if got := EIFS(); got != 364*time.Microsecond {
		t.Errorf("EIFS() = %v, want 364µs", got)
	}
	if EIFS() <= DIFS {
		t.Error("EIFS must exceed DIFS")
	}
}

func TestPositionDist(t *testing.T) {
	if d := Dist(Pos(0, 0), Pos(3, 4)); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d := Dist(Pos(10, 0), Pos(10, 0)); d != 0 {
		t.Errorf("Dist = %v, want 0", d)
	}
	p := Pos(1, 2).Add(3, 4)
	if p != Pos(4, 6) {
		t.Errorf("Add = %v", p)
	}
}
