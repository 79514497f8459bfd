package fam

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func newFAM(t *testing.T) *FAM {
	t.Helper()
	f := New(3, 1<<20, DefaultNet())
	if err := f.CreateRegion("r", 1<<21); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestAllocatePutGet(t *testing.T) {
	f := newFAM(t)
	d, err := f.Allocate("r", "item", 128, -1)
	if err != nil {
		t.Fatal(err)
	}
	var m Meter
	data := []byte("hello fabric attached memory")
	if err := f.Put(&m, d, 4, data, false); err != nil {
		t.Fatal(err)
	}
	got, err := f.Get(&m, d, 4, len(data), false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Get = %q", got)
	}
	// Two remote transfers of len(data) bytes each.
	if want := 2 * f.net.Cost(len(data), false); m.Seconds != want {
		t.Fatalf("meter = %+v, want %g s", m, want)
	}
}

func TestNilMeterSafe(t *testing.T) {
	f := newFAM(t)
	d, _ := f.Allocate("r", "x", 16, -1)
	if err := f.Put(nil, d, 0, []byte("abc"), true); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateErrors(t *testing.T) {
	f := newFAM(t)
	if _, err := f.Allocate("missing", "x", 8, -1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := f.Allocate("r", "x", 0, -1); !errors.Is(err, ErrInvalidSize) {
		t.Fatalf("err = %v", err)
	}
	if _, err := f.Allocate("r", "x", 8, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Allocate("r", "x", 8, -1); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate err = %v", err)
	}
}

func TestRegionQuota(t *testing.T) {
	f := New(1, 1<<20, DefaultNet())
	if err := f.CreateRegion("small", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Allocate("small", "a", 80, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Allocate("small", "b", 40, -1); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("quota err = %v", err)
	}
}

func TestServerCapacityAndSpread(t *testing.T) {
	f := New(2, 100, DefaultNet())
	if err := f.CreateRegion("r", 1000); err != nil {
		t.Fatal(err)
	}
	// Three 70-byte items cannot fit on two 100-byte servers... the
	// third must fail; the first two must land on different servers.
	d1, err := f.Allocate("r", "a", 70, -1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := f.Allocate("r", "b", 70, -1)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Server == d2.Server {
		t.Fatalf("both items on server %d", d1.Server)
	}
	if _, err := f.Allocate("r", "c", 70, -1); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v", err)
	}
}

func TestPreferredPlacement(t *testing.T) {
	f := newFAM(t)
	d, err := f.Allocate("r", "pinned", 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Server != 2 {
		t.Fatalf("placed on %d, want 2", d.Server)
	}
}

func TestLookupAndDeallocate(t *testing.T) {
	f := newFAM(t)
	d, _ := f.Allocate("r", "x", 8, -1)
	got, err := f.Lookup("r", "x")
	if err != nil || got != d {
		t.Fatalf("Lookup = %+v, %v", got, err)
	}
	if err := f.Deallocate(d); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Lookup("r", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after dealloc: %v", err)
	}
	if used := f.servers[d.Server].used; used != 0 {
		t.Fatalf("server usage %d after dealloc", used)
	}
}

func TestOutOfRange(t *testing.T) {
	f := newFAM(t)
	d, _ := f.Allocate("r", "x", 8, -1)
	if err := f.Put(nil, d, 4, []byte("12345"), true); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	if _, err := f.Get(nil, d, -1, 4, true); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
}

func TestServerFailureLosesItems(t *testing.T) {
	f := newFAM(t)
	d, _ := f.Allocate("r", "x", 8, 1)
	if err := f.FailServer(1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Get(nil, d, 0, 8, false); err == nil {
		t.Fatal("read from failed server succeeded")
	}
	if _, err := f.Lookup("r", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("metadata survived failure: %v", err)
	}
	// Recovery: server usable again, item still gone.
	if err := f.RecoverServer(1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Allocate("r", "x2", 8, 1); err != nil {
		t.Fatalf("allocation after recovery: %v", err)
	}
}

func TestCostModel(t *testing.T) {
	net := NetModel{Latency: 1e-6, Bandwidth: 1e9, LocalLatency: 1e-7}
	remote := net.Cost(1000, false)
	local := net.Cost(1000, true)
	if remote <= local {
		t.Fatalf("remote %g <= local %g", remote, local)
	}
	want := 1e-6 + 1e-6
	if diff := remote - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("remote = %g, want %g", remote, want)
	}
}

func TestObjectIDStable(t *testing.T) {
	a := ObjectID("dock/P29274/CCO")
	b := ObjectID("dock/P29274/CCO")
	c := ObjectID("dock/P29274/CCN")
	if a != b || a == c {
		t.Fatalf("ObjectID: %d %d %d", a, b, c)
	}
}

// Property: put-then-get round-trips arbitrary data at arbitrary
// offsets.
func TestPutGetRoundTripProperty(t *testing.T) {
	f := New(2, 1<<22, DefaultNet())
	if err := f.CreateRegion("p", 1<<23); err != nil {
		t.Fatal(err)
	}
	n := 0
	check := func(data []byte, offRaw uint16) bool {
		if len(data) == 0 {
			return true
		}
		n++
		size := len(data) + int(offRaw%512)
		name := string(rune('a'+n%26)) + string(rune('0'+n%10)) + string(rune('A'+(n/260)%26)) + itoa(n)
		d, err := f.Allocate("p", name, size, -1)
		if err != nil {
			return false
		}
		off := int(offRaw % 512)
		if off+len(data) > size {
			off = size - len(data)
		}
		if err := f.Put(nil, d, off, data, true); err != nil {
			return false
		}
		got, err := f.Get(nil, d, off, len(data), true)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func BenchmarkPutGet(b *testing.B) {
	f := New(2, 1<<24, DefaultNet())
	if err := f.CreateRegion("b", 1<<25); err != nil {
		b.Fatal(err)
	}
	d, err := f.Allocate("b", "x", 4096, -1)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Put(nil, d, 0, buf, false); err != nil {
			b.Fatal(err)
		}
		if _, err := f.Get(nil, d, 0, 4096, false); err != nil {
			b.Fatal(err)
		}
	}
}
