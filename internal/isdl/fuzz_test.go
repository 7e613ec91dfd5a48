package isdl_test

import (
	"strings"
	"testing"

	"repro/internal/isdl"
	"repro/internal/isdl/isdltest"
	"repro/internal/machines"
)

// FuzzFormatFixpoint checks that Format writes what Parse read: every
// source that parses formats to text that parses again, to the same
// structure, and whose own formatting is the same text. It also checks
// Derive's copy on every description it finds: Derive with no edit gives
// the same structure and text. Seeded with the zoo;
// testdata/fuzz/FuzzFormatFixpoint holds the inputs it has failed on.
func FuzzFormatFixpoint(f *testing.F) {
	for _, m := range machines.Zoo() {
		f.Add(m.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := isdl.Parse(src)
		if err != nil {
			return
		}
		checkFormatFixpoint(t, d)
	})
}

// checkFormatFixpoint fails t unless Format(d) parses to d's structure
// and formats to itself, and Derive(d, nil) has d's structure and text.
func checkFormatFixpoint(t *testing.T, d *isdl.Description) {
	t.Helper()
	text := isdl.Format(d)
	d2, err := isdl.Parse(text)
	if err != nil {
		t.Fatalf("Format output does not parse: %v\n%s", err, text)
	}
	s1 := isdltest.Structure(d)
	if s2 := isdltest.Structure(d2); s1 != s2 {
		t.Fatalf("Format changed the structure:\n%s\n--- after Parse(Format):\n%s", s1, s2)
	}
	if text2 := isdl.Format(d2); text2 != text {
		t.Fatalf("Format is not a fixpoint:\n%s\n--- then:\n%s", text, text2)
	}
	d3, err := isdl.Derive(d, nil)
	if err != nil {
		t.Fatalf("Derive with no edit: %v\n%s", err, text)
	}
	if s3 := isdltest.Structure(d3); s3 != s1 {
		t.Fatalf("Derive changed the structure:\n%s\n--- derived:\n%s", s1, s3)
	}
	if text3 := isdl.Format(d3); text3 != text {
		t.Fatalf("Derive changed the text:\n%s\n--- derived:\n%s", text, text3)
	}
}

// TestEmptySyntaxLiteral pins the rejection of "": an empty literal would
// read as parameter 0 to Format, the assembler and the disassembler.
func TestEmptySyntaxLiteral(t *testing.T) {
	src := strings.Replace(machines.RISC32Source, `(d: GPR) "," (a: GPR) "," (b: GPR)`, `(d: GPR) "" (a: GPR) "" (b: GPR)`, 1)
	if src == machines.RISC32Source {
		t.Fatal("risc32 has no three-register syntax to rewrite")
	}
	_, err := isdl.Parse(src)
	if err == nil || !strings.Contains(err.Error(), "empty syntax literal") {
		t.Fatalf("Parse = %v, want an empty syntax literal error", err)
	}
}

// wideToy is toy with a 96-bit register that halt assigns the literal lit.
func wideToy(t *testing.T, lit string) string {
	t.Helper()
	src := strings.Replace(machines.ToySource, "Register ACC width 8;", "Register ACC width 8;\nRegister WIDE width 96;", 1)
	src = strings.Replace(src, "Action { HLT <- 0b1; }", "Action { HLT <- 0b1; WIDE <- "+lit+"; }", 1)
	if !strings.Contains(src, "WIDE <- ") {
		t.Fatal("toy has no halt action to rewrite")
	}
	return src
}

// TestWideLiteralFormat pins literals wider than 64 bits through Format:
// an unsized literal assigned to a 96-bit register is materialized at 96
// bits and written sized (96'h5, 96'hff…fb), which the lexer must read
// back. Both inputs are also in testdata/fuzz/FuzzFormatFixpoint.
func TestWideLiteralFormat(t *testing.T) {
	for _, c := range []struct{ lit, want string }{
		{"5", "WIDE <- 96'h5;"},
		{"-5", "WIDE <- 96'hfffffffffffffffffffffffb;"},
	} {
		d, err := isdl.Parse(wideToy(t, c.lit))
		if err != nil {
			t.Fatalf("%s: %v", c.lit, err)
		}
		if text := isdl.Format(d); !strings.Contains(text, c.want) {
			t.Fatalf("%s: Format has no %q:\n%s", c.lit, c.want, text)
		}
		checkFormatFixpoint(t, d)
	}
}

// TestWideLiteralLex checks sized literals across the 64-bit word
// boundary: the digits beyond 64 bits land in further words. A value that
// needs more bits than the width is an error, as it is below 64 bits
// (TestSizedLiteralFits); zero digits beyond the width are not.
func TestWideLiteralLex(t *testing.T) {
	for _, c := range []struct{ lit, want string }{
		{"96'h123456789abcdef0fedcba98", "96'h123456789abcdef0fedcba98"},
		{"0x00000000000000010000000000000002", "128'h10000000000000002"},
		{"96'b1" + strings.Repeat("0", 95), "96'h800000000000000000000000"},
		{"96'h0ffffffffffffffffffffffff", "96'hffffffffffffffffffffffff"},
	} {
		d, err := isdl.Parse(wideToy(t, "trunc("+c.lit+", 96)"))
		if err != nil {
			t.Fatalf("%s: %v", c.lit, err)
		}
		if text := isdl.Format(d); !strings.Contains(text, c.want) {
			t.Errorf("%s: Format has no %q", c.lit, c.want)
		}
	}
	for _, lit := range []string{"96'h1ffffffffffffffffffffffff", "96'b1" + strings.Repeat("0", 96)} {
		if _, err := isdl.Parse(wideToy(t, "trunc("+lit+", 96)")); err == nil || !strings.Contains(err.Error(), "does not fit in 96 bits") {
			t.Errorf("%s: Parse = %v, want a does-not-fit error", lit, err)
		}
	}
}

// TestSizedLiteralFits: a sized literal whose value does not fit its width
// is an error at its position, where the lexer once dropped the high digits
// and read another constant (8'h1ff as 8'hff). Leading zero digits beyond
// the width are legal.
func TestSizedLiteralFits(t *testing.T) {
	d, err := isdl.Parse(wideToy(t, "zext(8'h0ff, 96)"))
	if err != nil {
		t.Fatal(err)
	}
	if text := isdl.Format(d); !strings.Contains(text, "zext(8'hff, 96)") {
		t.Errorf("Format has no %q", "zext(8'hff, 96)")
	}
	for _, lit := range []string{"8'h1ff", "4'b10000", "8'd256"} {
		_, err := isdl.Parse(wideToy(t, "zext("+lit+", 96)"))
		if err == nil || !strings.Contains(err.Error(), "literal "+lit+" does not fit") {
			t.Errorf("%s: Parse = %v, want a does-not-fit error", lit, err)
		}
	}
}
