package parallel

import "testing"

func TestSemaphoreBound(t *testing.T) {
	s := NewSemaphore(2)
	if s.Cap() != 2 {
		t.Fatalf("cap = %d", s.Cap())
	}
	if !s.TryAcquire() || !s.TryAcquire() {
		t.Fatal("first two acquires must succeed")
	}
	if s.TryAcquire() {
		t.Fatal("third acquire must fail at the bound")
	}
	s.Release()
	if !s.TryAcquire() {
		t.Fatal("release must free a slot")
	}
	s.Release()
	s.Release()
}

func TestSemaphoreReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced Release must panic")
		}
	}()
	NewSemaphore(1).Release()
}
