package server

import (
	"net/url"
	"reflect"
	"testing"
)

// FuzzParseQuery feeds raw query strings through url.ParseQuery, as a
// request's URL reaches the handlers, into the batch and stream query
// parsers. Neither may panic; a query the stream parser accepts must
// parse to the same options and calibration on the batch endpoint; and
// every accepted calibration cost and window geometry is non-negative.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range []string{
		"",
		"mode=time&repair=1&probe=5",
		"mode=event&repair=false&probe=0",
		"window=1000&slide=250",
		"event=1&advance=2&awaitb=3&awaite=4&snowait=5&swait=6&advanceop=7&barrier=8",
		"probe=9223372036854775807&barrier=0",
		"mode=liberal",
		"mode=bogus",
		"repair=maybe",
		"probe=-1",
		"window=-5",
		"slide=1e3",
		"snowait=%zz",
		"probe=1&probe=2;x",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // URL.Query drops the error the same way
		opts, cal, err := parseQuery(q)
		if err == nil {
			for name, v := range map[string]int64{
				"event": int64(cal.Overheads.Event), "advance": int64(cal.Overheads.Advance),
				"awaitb": int64(cal.Overheads.AwaitB), "awaite": int64(cal.Overheads.AwaitE),
				"snowait": int64(cal.SNoWait), "swait": int64(cal.SWait),
				"advanceop": int64(cal.AdvanceOp), "barrier": int64(cal.Barrier),
			} {
				if v < 0 {
					t.Errorf("%q: calibration %s = %d, want >= 0", raw, name, v)
				}
			}
		}
		sopts, scal, window, slide, serr := parseStreamQuery(q)
		if serr != nil {
			return
		}
		if err != nil {
			t.Fatalf("%q: stream parser accepted what the batch parser rejects: %v", raw, err)
		}
		if !reflect.DeepEqual(sopts, opts) || scal != cal {
			t.Errorf("%q: stream parsed %+v %+v, batch %+v %+v", raw, sopts, scal, opts, cal)
		}
		if window < 0 || slide < 0 {
			t.Errorf("%q: window %d, slide %d, want both >= 0", raw, window, slide)
		}
	})
}
