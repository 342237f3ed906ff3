package suggest

import "testing"

// TestClosest covers the did-you-mean rule shared by the CLI's
// subcommands, fault backends and compaction modes: a near miss gets
// the nearest name, gibberish gets nothing, ties go to the first name.
func TestClosest(t *testing.T) {
	for _, tc := range []struct {
		s     string
		names []string
		want  string
	}{
		{"atgp", []string{"atpg", "advise", "bench"}, "atpg"},
		{"ful", []string{"off", "reverse", "static", "dynamic", "full"}, "full"},
		{"paralel", []string{"auto", "parallel", "serial", "cpt"}, "parallel"},
		{"zzzzqq", []string{"atpg", "advise", "bench"}, ""},
		{"zzzzzzzz", []string{"off", "reverse", "static", "dynamic", "full"}, ""},
		{"faultparallel", []string{"auto", "parallel", "serial", "cpt"}, ""},
		{"ab", []string{"ac", "ad"}, "ac"},
	} {
		if got := Closest(tc.s, tc.names); got != tc.want {
			t.Errorf("Closest(%q) = %q, want %q", tc.s, got, tc.want)
		}
	}
}
