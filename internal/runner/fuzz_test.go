package runner

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// figure8Cell runs one Figure 8 cell, the seed of the reader fuzz targets.
func figure8Cell(f *testing.F) []Record {
	res := Run(Figure8Grid().Cells()[:1], Options{Workers: 1})
	if err := FirstErr(res); err != nil {
		f.Fatal(err)
	}
	return Records(res)
}

// FuzzReadCSV: ReadCSV either rejects its input, or the records it read
// survive WriteCSV → ReadCSV unchanged — the reader accepts nothing the
// writer cannot reproduce. The seed is the CSV of one Figure 8 cell.
func FuzzReadCSV(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteCSV(&seed, figure8Cell(f)); err != nil {
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

// FuzzReadJSON: ReadJSON either rejects its input, or the input is one
// JSON document and the records it read survive WriteJSON → ReadJSON
// unchanged. The seed is the JSON of one Figure 8 cell.
func FuzzReadJSON(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteJSON(&seed, figure8Cell(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, in []byte) {
		recs, err := ReadJSON(bytes.NewReader(in))
		if err != nil {
			return
		}
		if !json.Valid(in) {
			t.Fatalf("ReadJSON accepted what is not one JSON document:\n%q", in)
		}
		var out bytes.Buffer
		if err := WriteJSON(&out, recs); err != nil {
			t.Fatalf("WriteJSON of what ReadJSON accepted: %v", err)
		}
		back, err := ReadJSON(&out)
		if err != nil {
			t.Fatalf("ReadJSON of WriteJSON's output: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(recs, back) {
			t.Fatalf("records changed in a WriteJSON → ReadJSON round trip:\n in=%+v\nout=%+v", recs, back)
		}
	})
}
