package overload

import "testing"

// FuzzParsePolicy checks the -overload grammar on arbitrary input:
// ParsePolicy never panics, and a policy it accepts reads back from its
// String() rendering to the same Policy. The corpus starts from
// TestParsePolicy's table.
//
//	go test -run '^$' -fuzz FuzzParsePolicy -fuzztime 10s ./internal/overload
func FuzzParsePolicy(f *testing.F) {
	for _, tc := range policyCases {
		f.Add(tc.in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		p, err := ParsePolicy(in)
		if err != nil {
			return
		}
		canon := p.String()
		again, err := ParsePolicy(canon)
		if err != nil || again != p {
			t.Fatalf("ParsePolicy(%q) = %#v renders as %q, which parses to %#v, %v", in, p, canon, again, err)
		}
	})
}
