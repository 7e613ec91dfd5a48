// Package randmachine generates random — but always semantically valid —
// ISDL machine descriptions and random programs for them. It exists to
// drive property tests across the whole generated-tool pipeline: for any
// machine the generator can produce, parsing must succeed, Format must be a
// fixpoint, assembly must invert disassembly (Axiom 1), and the interp and
// aot simulator backends must agree. The space covers varying word widths,
// register-file shapes, immediate widths, operand non-terminals and
// operation mixes.
package randmachine

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config bounds the generated machine.
type Config struct {
	// MaxOps bounds the single field's operation count (≥ 4: mov, halt,
	// nop and at least one ALU op are always present).
	MaxOps int
	// ForCompiler constrains the random space to machines the retargetable
	// compiler can always target (the suite gauntlet's mode): eight
	// registers, 8-bit immediates, add/sub/and guaranteed (or/xor still
	// random), and load, store and branch always present. Word width,
	// register width and the operand non-terminal stay random.
	ForCompiler bool
}

// Machine is a generated machine plus the knowledge needed to generate
// valid programs for it.
type Machine struct {
	Source string

	WordWidth int
	RegCount  int
	RegWidth  int
	ImmWidth  int
	MemDepth  int
	UseNT     bool
	// ALUOps lists the generated three-address mnemonics; HasLoad/HasStore
	// report the memory operations; HasBranch the beq/jump pair.
	ALUOps    []string
	HasLoad   bool
	HasStore  bool
	HasBranch bool
}

var aluSyms = []struct{ name, sym string }{
	{"add", "+"}, {"sub", "-"}, {"and", "&"}, {"or", "|"}, {"xor", "^"},
}

// Generate builds a random machine.
func Generate(rnd *rand.Rand, cfg Config) *Machine {
	if cfg.MaxOps < 4 {
		cfg.MaxOps = 8
	}
	m := &Machine{
		WordWidth: []int{20, 24, 28, 32}[rnd.Intn(4)],
		RegCount:  []int{4, 8}[rnd.Intn(2)],
		RegWidth:  []int{8, 12, 16}[rnd.Intn(3)],
		ImmWidth:  []int{6, 8}[rnd.Intn(2)],
		MemDepth:  64,
		UseNT:     rnd.Intn(2) == 0,
	}
	if cfg.ForCompiler {
		// The compiler needs temps alongside register-resident loop
		// variables, and its relational lowering builds the sign-bit mask
		// 1<<(w-1) by double-and-add from an immediate seed — an 8-bit
		// immediate always suffices, a 6-bit one does not.
		m.RegCount = 8
		m.ImmWidth = 8
	}
	regBits := 2
	if m.RegCount == 8 {
		regBits = 3
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "Machine rnd;\nFormat %d;\n\nSection Global_Definitions\n\n", m.WordWidth)
	fmt.Fprintf(&sb, "Token GPR \"R\" [0..%d];\n", m.RegCount-1)
	fmt.Fprintf(&sb, "Token IMM imm signed %d;\n", m.ImmWidth)
	fmt.Fprintf(&sb, "Token UIMM imm unsigned 8;\n")

	srcType := "GPR"
	srcBits := regBits
	if m.UseNT {
		srcType = "SRC"
		srcBits = m.ImmWidth + 1
		zeros := strings.Repeat("0", m.ImmWidth-regBits)
		fmt.Fprintf(&sb, `
Non_Terminal SRC width %d :
  option (r: GPR)
    Encode { R[%d] = 0b0; R[%d:%d] = 0b%s; R[%d:0] = r; }
    Value { RF[r] }
  option "#" (i: IMM)
    Encode { R[%d] = 0b1; R[%d:0] = i; }
    Value { sext(i, %d) }
;
`, m.ImmWidth+1,
			m.ImmWidth, m.ImmWidth-1, regBits, zeros, regBits-1,
			m.ImmWidth, m.ImmWidth-1, m.RegWidth)
	}

	fmt.Fprintf(&sb, `
Section Storage

InstructionMemory IMEM width %d depth 256;
DataMemory DMEM width %d depth %d;
RegFile RF width %d depth %d;
ControlRegister HLT width 1;
ProgramCounter PC width 8;

Section Instruction_Set

Field EX:
`, m.WordWidth, m.RegWidth, m.MemDepth, m.RegWidth, m.RegCount)

	// Fixed operand bit positions: opcode in the top 5 bits, d/a registers
	// below, the source operand at the bottom.
	w := m.WordWidth
	opTop, opBot := w-1, w-5
	dTop := opBot - 1
	dBot := dTop - regBits + 1
	aTop := dBot - 1
	aBot := aTop - regBits + 1
	opcode := 0
	nextOp := func() int { opcode++; return opcode - 1 }

	srcEnc := func() string {
		return fmt.Sprintf("I[%d:0] = s;", srcBits-1)
	}

	var opIdx []int
	if cfg.ForCompiler {
		// add, sub and and are the compiler's floor (arithmetic plus the
		// sign-bit mask of relational lowering); or and xor stay random.
		opIdx = []int{0, 1, 2}
		for i := 3; i < len(aluSyms); i++ {
			if rnd.Intn(2) == 0 {
				opIdx = append(opIdx, i)
			}
		}
	} else {
		nALU := 1 + rnd.Intn(len(aluSyms))
		opIdx = rnd.Perm(len(aluSyms))[:nALU]
	}
	for _, pi := range opIdx {
		op := aluSyms[pi]
		m.ALUOps = append(m.ALUOps, op.name)
		fmt.Fprintf(&sb, `  op %s (d: GPR) "," (a: GPR) "," (s: %s)
    Encode { I[%d:%d] = 0b%05b; I[%d:%d] = d; I[%d:%d] = a; %s }
    Action { RF[d] <- RF[a] %s %s; }
`, op.name, srcType, opTop, opBot, nextOp(), dTop, dBot, aTop, aBot, srcEnc(), op.sym, srcExpr(m))
	}

	// Always: mov (with immediate reachability), halt, nop.
	fmt.Fprintf(&sb, `  op mv (d: GPR) "," (s: %s)
    Encode { I[%d:%d] = 0b%05b; I[%d:%d] = d; %s }
    Action { RF[d] <- %s; }
`, srcType, opTop, opBot, nextOp(), dTop, dBot, srcEnc(), srcExpr(m))
	if !m.UseNT {
		// Direct-register machines still need an immediate move.
		fmt.Fprintf(&sb, `  op mvi (d: GPR) "," (i: IMM)
    Encode { I[%d:%d] = 0b%05b; I[%d:%d] = d; I[%d:0] = i; }
    Action { RF[d] <- sext(i, %d); }
`, opTop, opBot, nextOp(), dTop, dBot, m.ImmWidth-1, m.RegWidth)
	}

	if cfg.ForCompiler || rnd.Intn(2) == 0 {
		m.HasLoad = true
		fmt.Fprintf(&sb, `  op ld (d: GPR) "," "@" (a: GPR)
    Encode { I[%d:%d] = 0b%05b; I[%d:%d] = d; I[%d:%d] = a; }
    Action { RF[d] <- DMEM[RF[a]]; }
    Cost { Cycle = 1; Stall = 1; }
    Timing { Latency = 2; Usage = 1; }
`, opTop, opBot, nextOp(), dTop, dBot, aTop, aBot)
	}
	if cfg.ForCompiler || rnd.Intn(2) == 0 {
		m.HasStore = true
		fmt.Fprintf(&sb, `  op st "@" (a: GPR) "," (v: GPR)
    Encode { I[%d:%d] = 0b%05b; I[%d:%d] = v; I[%d:%d] = a; }
    Action { DMEM[RF[a]] <- RF[v]; }
`, opTop, opBot, nextOp(), dTop, dBot, aTop, aBot)
	}
	if cfg.ForCompiler || rnd.Intn(2) == 0 {
		m.HasBranch = true
		fmt.Fprintf(&sb, `  op beq (a: GPR) "," (b: GPR) "," (t: UIMM)
    Encode { I[%d:%d] = 0b%05b; I[%d:%d] = a; I[%d:%d] = b; I[7:0] = t; }
    Action { if (RF[a] == RF[b]) { PC <- t; } }
  op jmp (t: UIMM)
    Encode { I[%d:%d] = 0b%05b; I[7:0] = t; }
    Action { PC <- t; }
`, opTop, opBot, nextOp(), dTop, dBot, aTop, aBot, opTop, opBot, nextOp())
	}

	fmt.Fprintf(&sb, `  op halt
    Encode { I[%d:%d] = 0b%05b; }
    Action { HLT <- 0b1; }
  op nop
    Encode { I[%d:%d] = 0b11111; }
`, opTop, opBot, nextOp(), opTop, opBot)

	m.Source = sb.String()
	return m
}

// srcExpr renders the action expression for the source operand.
func srcExpr(m *Machine) string {
	if m.UseNT {
		return "s"
	}
	return "RF[s]"
}

// RandomProgram emits a random straight-line program of n instructions plus
// a halt, using only operand values that are valid for the machine.
func (m *Machine) RandomProgram(rnd *rand.Rand, n int) string {
	var lines []string
	reg := func() int { return rnd.Intn(m.RegCount) }
	immMax := 1 << uint(m.ImmWidth-1)
	imm := func() int { return rnd.Intn(2*immMax) - immMax }
	src := func() string {
		if m.UseNT && rnd.Intn(2) == 0 {
			return fmt.Sprintf("#%d", imm())
		}
		return fmt.Sprintf("R%d", reg())
	}
	for len(lines) < n {
		switch k := rnd.Intn(5); {
		case k == 0 && m.UseNT:
			lines = append(lines, fmt.Sprintf("mv R%d, #%d", reg(), imm()))
		case k == 0:
			lines = append(lines, fmt.Sprintf("mvi R%d, %d", reg(), imm()))
		case k == 1 && m.HasLoad:
			lines = append(lines, fmt.Sprintf("ld R%d, @R%d", reg(), reg()))
		case k == 2 && m.HasStore:
			lines = append(lines, fmt.Sprintf("st @R%d, R%d", reg(), reg()))
		default:
			op := m.ALUOps[rnd.Intn(len(m.ALUOps))]
			lines = append(lines, fmt.Sprintf("%s R%d, R%d, %s", op, reg(), reg(), src()))
		}
	}
	lines = append(lines, "halt")
	return strings.Join(lines, "\n")
}
