package runner

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadCSV: ReadCSV either rejects its input, or the records it read
// survive WriteCSV → ReadCSV unchanged — the reader accepts nothing the
// writer cannot reproduce. The seed is the CSV of one Figure 8 cell.
func FuzzReadCSV(f *testing.F) {
	res := Run(Figure8Grid().Cells()[:1], Options{Workers: 1})
	if err := FirstErr(res); err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := WriteCSV(&seed, Records(res)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, in []byte) {
		recs, err := ReadCSV(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteCSV(&out, recs); err != nil {
			t.Fatalf("WriteCSV of what ReadCSV accepted: %v", err)
		}
		back, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("ReadCSV of WriteCSV's output: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(recs, back) {
			t.Fatalf("records changed in a WriteCSV → ReadCSV round trip:\n in=%+v\nout=%+v", recs, back)
		}
	})
}
