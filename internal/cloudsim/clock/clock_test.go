package clock

import (
	"sync"
	"testing"
	"time"
)

func TestVirtualStartsAtEpoch(t *testing.T) {
	v := NewVirtual()
	if !v.Now().Equal(Epoch) {
		t.Fatalf("NewVirtual().Now() = %v, want %v", v.Now(), Epoch)
	}
}

func TestVirtualAdvance(t *testing.T) {
	v := NewVirtual()
	v.Advance(90 * time.Second)
	want := Epoch.Add(90 * time.Second)
	if !v.Now().Equal(want) {
		t.Fatalf("after Advance(90s): Now() = %v, want %v", v.Now(), want)
	}
}

func TestVirtualAdvanceNegativeIgnored(t *testing.T) {
	v := NewVirtual()
	v.Advance(-time.Hour)
	if !v.Now().Equal(Epoch) {
		t.Fatalf("negative Advance moved the clock to %v", v.Now())
	}
}

func TestVirtualSetMonotonic(t *testing.T) {
	v := NewVirtual()
	later := Epoch.Add(time.Hour)
	v.Set(later)
	if !v.Now().Equal(later) {
		t.Fatalf("Set(later): Now() = %v, want %v", v.Now(), later)
	}
	v.Set(Epoch) // earlier: must be ignored
	if !v.Now().Equal(later) {
		t.Fatalf("Set(earlier) rewound the clock to %v", v.Now())
	}
}

func TestVirtualConcurrentAdvance(t *testing.T) {
	v := NewVirtual()
	const workers, steps = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < steps; j++ {
				v.Advance(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	want := Epoch.Add(workers * steps * time.Millisecond)
	if !v.Now().Equal(want) {
		t.Fatalf("concurrent advance: Now() = %v, want %v", v.Now(), want)
	}
}
