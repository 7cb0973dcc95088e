package edb

import (
	"strings"
	"testing"
)

// FuzzLoadRows asserts bulk loading never panics, loads only same-arity
// facts, and counts exactly the rows it stored.
func FuzzLoadRows(f *testing.F) {
	f.Add("a,b\nc,d\n")
	f.Add("x\ty\tz\n")
	f.Add("# comment\n\n a , b \n")
	f.Add("one\ntwo,three\n")
	f.Add(",\n")
	f.Fuzz(func(t *testing.T, data string) {
		db := New()
		added, err := db.LoadRows("p", strings.NewReader(data))
		if err != nil {
			return
		}
		if preds := db.Preds(); len(preds) > 1 {
			t.Fatalf("mixed arity slipped through: %v", preds)
		}
		if added != db.Facts() {
			t.Fatalf("LoadRows counted %d new rows, store holds %d", added, db.Facts())
		}
	})
}
