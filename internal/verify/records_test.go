package verify

import (
	"reflect"
	"testing"

	"atomio/internal/interval"
)

// TestTornPastMarkerWrap: ranks 0 and 255 stamp the same marker byte, so
// the bytes cannot show that they tore their overlap; the writers the store
// keeps can.
func TestTornPastMarkerWrap(t *testing.T) {
	if Marker(0) != Marker(255) {
		t.Fatal("the test needs two ranks with one marker")
	}
	fs := newFS()
	views := make([]interval.List, 256)
	views[0], views[255] = interval.List{ext(0, 100)}, interval.List{ext(0, 100)}
	write(t, fs, 0, ext(0, 100))
	write(t, fs, 255, ext(0, 50)) // rank 255 lands on half the overlap only
	image := make([]byte, 100)
	Fill(0, image)
	Fill(255, image[:50])
	if !CheckBytes(image, views).Atomic() {
		t.Fatal("the marker bytes were expected to hide the tear")
	}
	rep, err := Check(fs, "f", views)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Atomic() || len(rep.Violations) != 1 || !reflect.DeepEqual(rep.Violations[0].Found, []int{0, 255}) {
		t.Fatalf("torn overlap of ranks 0 and 255: %+v", rep)
	}
}
