package isdl

import "testing"

// TestLexPunctLongestFirst: each two-character operator lexes as one
// token, never as its one-character prefix followed by a second token,
// and the prefix alone still lexes as itself.
func TestLexPunctLongestFirst(t *testing.T) {
	for _, c := range []struct {
		src  string
		want []string
	}{
		{"<- <= << <", []string{"<-", "<=", "<<", "<"}},
		{"<-<=<<<", []string{"<-", "<=", "<<", "<"}},
		{"-> -", []string{"->", "-"}},
		{"->-", []string{"->", "-"}},
		{".. .", []string{"..", "."}},
		{"...", []string{"..", "."}},
		{">> >= > == = != ! && & || |", []string{">>", ">=", ">", "==", "=", "!=", "!", "&&", "&", "||", "|"}},
	} {
		l := newLexer(c.src)
		var got []string
		for {
			tok, err := l.next()
			if err != nil {
				t.Fatalf("%q: %v", c.src, err)
			}
			if tok.Kind == lexEOF {
				break
			}
			if tok.Kind != lexPunct {
				t.Fatalf("%q: token %q of kind %d, want punctuation", c.src, tok.Text, tok.Kind)
			}
			got = append(got, tok.Text)
		}
		if len(got) != len(c.want) {
			t.Fatalf("%q: tokens %q, want %q", c.src, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%q: tokens %q, want %q", c.src, got, c.want)
			}
		}
	}
	for _, p := range puncts {
		l := newLexer(p)
		if tok, err := l.next(); err != nil || tok.Kind != lexPunct || tok.Text != p {
			t.Errorf("%q lexes as %q (%v)", p, tok.Text, err)
		}
	}
}
