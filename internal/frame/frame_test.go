package frame

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"adhocsim/internal/phy"
)

func TestAddrFromID(t *testing.T) {
	a := AddrFromID(1)
	b := AddrFromID(2)
	if a == b {
		t.Fatal("distinct IDs produced equal addresses")
	}
	if a.IsGroup() || a.IsBroadcast() {
		t.Fatal("station address must be unicast")
	}
	if !Broadcast.IsBroadcast() || !Broadcast.IsGroup() {
		t.Fatal("broadcast flags wrong")
	}
	for _, id := range []uint32{0, 1, 256, 1<<24 - 2, 1<<32 - 1} {
		if got, ok := IDFromAddr(AddrFromID(id)); !ok || got != id {
			t.Errorf("IDFromAddr(AddrFromID(%d)) = %d, %v", id, got, ok)
		}
	}
	if _, ok := IDFromAddr(Broadcast); ok {
		t.Error("IDFromAddr accepted the broadcast address")
	}
}

func TestPSDUBits(t *testing.T) {
	tests := []struct {
		f    Frame
		want int
	}{
		{Frame{Type: TypeACK}, 112},
		{Frame{Type: TypeCTS}, 112},
		{Frame{Type: TypeRTS}, 160},
		{Frame{Type: TypeData}, 272},
		{Frame{Type: TypeData, Payload: make([]byte, 512)}, 272 + 4096},
		{Frame{Type: TypeBeacon, Payload: make([]byte, 20)}, 272 + 160},
	}
	for _, tt := range tests {
		if got := tt.f.PSDUBits(); got != tt.want {
			t.Errorf("PSDUBits(%v, len=%d) = %d, want %d", tt.f.Type, len(tt.f.Payload), got, tt.want)
		}
	}
}

func TestAirTimeMatchesPaperAccounting(t *testing.T) {
	// 512-byte MSDU at 11 Mbit/s: 192 µs + (272+4096)/11 µs ≈ 589.1 µs.
	f := &Frame{Type: TypeData, Payload: make([]byte, 512)}
	want := phy.PLCPTime + phy.Rate11.Airtime(272+4096)
	if got := f.AirTime(phy.Rate11); got != want {
		t.Errorf("AirTime = %v, want %v", got, want)
	}
	ack := &Frame{Type: TypeACK}
	if got := ack.AirTime(phy.Rate2); got != 248*time.Microsecond {
		t.Errorf("ACK AirTime = %v, want 248µs", got)
	}
}

func TestNeedsACK(t *testing.T) {
	unicast := &Frame{Type: TypeData, Addr1: AddrFromID(7)}
	if !unicast.NeedsACK() {
		t.Error("unicast data must need ACK")
	}
	bcast := &Frame{Type: TypeData, Addr1: Broadcast}
	if bcast.NeedsACK() {
		t.Error("broadcast data must not need ACK")
	}
	for _, typ := range []Type{TypeACK, TypeRTS, TypeCTS, TypeBeacon} {
		f := &Frame{Type: typ, Addr1: AddrFromID(7)}
		if f.NeedsACK() {
			t.Errorf("%v must not need ACK", typ)
		}
	}
}

func TestCloneDeep(t *testing.T) {
	f := &Frame{Type: TypeData, Payload: []byte{1, 2, 3}}
	g := f.Clone()
	g.Payload[0] = 99
	g.Retry = true
	if f.Payload[0] != 1 || f.Retry {
		t.Error("Clone shares state with original")
	}
}

func TestEncodeDecodeAllTypes(t *testing.T) {
	frames := []*Frame{
		{Type: TypeACK, Addr1: AddrFromID(1), Duration: 0},
		{Type: TypeCTS, Addr1: AddrFromID(2), Duration: 500 * time.Microsecond},
		{Type: TypeRTS, Addr1: AddrFromID(1), Addr2: AddrFromID(2), Duration: 2 * time.Millisecond},
		{Type: TypeData, Addr1: AddrFromID(1), Addr2: AddrFromID(2), Addr3: AddrFromID(3),
			Seq: 1234, Retry: true, Duration: 304 * time.Microsecond, Payload: []byte("hello world")},
		{Type: TypeBeacon, Addr1: Broadcast, Addr2: AddrFromID(2), Addr3: AddrFromID(2),
			Seq: 7, Payload: make([]byte, 40)},
	}
	for _, f := range frames {
		got, err := Decode(Encode(f))
		if err != nil {
			t.Fatalf("Decode(%v): %v", f.Type, err)
		}
		if !reflect.DeepEqual(f, got) {
			t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", f, got)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	f := &Frame{Type: TypeData, Addr1: AddrFromID(1), Addr2: AddrFromID(2), Payload: []byte("payload")}
	wire := Encode(f)
	for i := range wire {
		bad := bytes.Clone(wire)
		bad[i] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Fatalf("corruption at byte %d not detected", i)
		}
	}
}

func TestDecodeShortBuffers(t *testing.T) {
	for n := 0; n < 14; n++ {
		if _, err := Decode(make([]byte, n)); err == nil {
			t.Fatalf("len %d: expected error", n)
		}
	}
}

func TestDurationSaturates(t *testing.T) {
	f := &Frame{Type: TypeCTS, Addr1: AddrFromID(1), Duration: time.Hour}
	got, err := Decode(Encode(f))
	if err != nil {
		t.Fatal(err)
	}
	want := time.Duration(1<<16-1) * time.Microsecond
	if got.Duration != want {
		t.Errorf("Duration = %v, want saturated %v", got.Duration, want)
	}
	f.Duration = -time.Second
	got, err = Decode(Encode(f))
	if err != nil {
		t.Fatal(err)
	}
	if got.Duration != 0 {
		t.Errorf("negative duration should clamp to 0, got %v", got.Duration)
	}
}

// Property: encode/decode round-trips arbitrary data frames.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seed int64, plen uint16, seq uint16, retry bool, durUS uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		payload := make([]byte, plen%2304)
		rng.Read(payload)
		var p []byte
		if len(payload) > 0 {
			p = payload
		}
		in := &Frame{
			Type:     TypeData,
			Retry:    retry,
			Duration: time.Duration(durUS) * time.Microsecond,
			Addr1:    AddrFromID(rng.Uint32()),
			Addr2:    AddrFromID(rng.Uint32()),
			Addr3:    AddrFromID(rng.Uint32()),
			Seq:      seq,
			Payload:  p,
		}
		out, err := Decode(Encode(in))
		return err == nil && reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: random garbage essentially never decodes (FCS protects).
func TestDecodeGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		buf := make([]byte, 14+rng.Intn(100))
		rng.Read(buf)
		if f, err := Decode(buf); err == nil {
			t.Fatalf("garbage decoded as %v", f)
		}
	}
}

// TestAddrStringMatchesSprintf pins String and AppendTo to the
// fmt.Sprintf form the MAC's stream names were first built from, on
// the station ids whose addresses cross a byte or nibble boundary and
// on addresses with every nibble value.
func TestAddrStringMatchesSprintf(t *testing.T) {
	addrs := []Addr{Broadcast, {}, {0x0f, 0xf0, 0x9a, 0xbc, 0xde, 0x01}}
	for _, id := range []uint32{1, 255, 256, 4095, 65535, 65536, 1<<24 - 2} {
		addrs = append(addrs, AddrFromID(id))
	}
	for _, a := range addrs {
		want := fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
		if got := a.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		if got := string(a.AppendTo([]byte("x"))); got != "x"+want {
			t.Errorf("AppendTo = %q, want %q", got, "x"+want)
		}
	}
}
