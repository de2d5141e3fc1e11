package main

import "testing"

// TestOrderMatchesExperiments keeps the two experiment tables in step: a name
// in order without a runner would make -exp all call a nil function, and a
// runner missing from order would be unreachable from -exp all and absent
// from the help text.
func TestOrderMatchesExperiments(t *testing.T) {
	seen := make(map[string]bool, len(order))
	for _, name := range order {
		if seen[name] {
			t.Errorf("order lists %q twice", name)
		}
		seen[name] = true
		if experiments[name] == nil {
			t.Errorf("order lists %q, which has no runner", name)
		}
	}
	for name := range experiments {
		if !seen[name] {
			t.Errorf("experiment %q is missing from order", name)
		}
	}
}

func TestParseInts(t *testing.T) {
	tests := []struct {
		give    string
		want    []int
		wantErr bool
	}{
		{give: "1", want: []int{1}},
		{give: "10,20,30", want: []int{10, 20, 30}},
		{give: " 5 , 6 ", want: []int{5, 6}},
		{give: "1,,2", want: []int{1, 2}},
		{give: "", wantErr: true},
		{give: "abc", wantErr: true},
		{give: "0", wantErr: true},
		{give: "-3", wantErr: true},
		{give: "1,x", wantErr: true},
	}
	for _, tt := range tests {
		got, err := parseInts(tt.give)
		if tt.wantErr {
			if err == nil {
				t.Errorf("parseInts(%q) succeeded with %v, want error", tt.give, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseInts(%q): %v", tt.give, err)
			continue
		}
		if len(got) != len(tt.want) {
			t.Errorf("parseInts(%q) = %v, want %v", tt.give, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("parseInts(%q) = %v, want %v", tt.give, got, tt.want)
				break
			}
		}
	}
}
