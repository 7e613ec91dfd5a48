package machines

import "repro/internal/isdl"

// RISCV5Source is a pipelined RISC-V-flavoured 32-bit load/store machine —
// the "machine zoo" member that stresses the §3.3.3 latency/usage model
// beyond SPAM's DSP shape (PAPERS.md: "Towards Accurate Performance
// Modeling of RISC-V Designs"). The description models a classic 5-stage
// pipeline (IF ID EX MEM WB) with full forwarding through the Timing
// annotations:
//
//   - ALU results forward EX→EX: Latency 1, no stall.
//   - Loads produce in MEM: Latency 2, so a dependent consumer in the next
//     slot takes the one-cycle load-use stall (counted as a data stall).
//   - The multiplier is a 3-stage pipelined unit without a bypass:
//     Latency 3 (up to two data-stall cycles for an immediate consumer),
//     but Usage 1 — back-to-back independent multiplies issue every cycle.
//   - Control transfers (branches taken or not, jumps) hold the single
//     issue field for an extra cycle (Usage 2): the static one-bubble
//     fetch-redirect penalty of a pipeline without branch prediction,
//     counted as a structural stall.
//
// The instruction set is RV32I-flavoured (addi/slli/srli immediates,
// lui/li constants, lw/sw with register+offset addressing, beq/bne plus the
// beqz/bnez compare-to-zero forms, jal with a link register in R31) so the
// retargetable compiler classifies a rich target: three-address ALU ops
// with immediate forms, shift-immediates, an RF-destination multiply, and
// both branch primitives.
const RISCV5Source = `
Machine riscv5;
Format 32;

Section Global_Definitions

Token GPR "R" [0..31];
Token IMM16 imm signed 16;
Token SH5 imm unsigned 5;
Token OFF imm signed 10;
Token TGT imm unsigned 10;

Section Storage

InstructionMemory IMEM width 32 depth 1024;
DataMemory DMEM width 32 depth 1024;
RegFile RF width 32 depth 32;
ControlRegister HLT width 1;
ProgramCounter PC width 10;

Section Instruction_Set

Field EX:
  op add (d: GPR) "," (a: GPR) "," (b: GPR)
    Encode { I[31:26] = 0b000000; I[25:21] = d; I[20:16] = a; I[15:11] = b; }
    Action { RF[d] <- RF[a] + RF[b]; }
    Timing { Latency = 1; Usage = 1; }
  op sub (d: GPR) "," (a: GPR) "," (b: GPR)
    Encode { I[31:26] = 0b000001; I[25:21] = d; I[20:16] = a; I[15:11] = b; }
    Action { RF[d] <- RF[a] - RF[b]; }
  op and (d: GPR) "," (a: GPR) "," (b: GPR)
    Encode { I[31:26] = 0b000010; I[25:21] = d; I[20:16] = a; I[15:11] = b; }
    Action { RF[d] <- RF[a] & RF[b]; }
  op or (d: GPR) "," (a: GPR) "," (b: GPR)
    Encode { I[31:26] = 0b000011; I[25:21] = d; I[20:16] = a; I[15:11] = b; }
    Action { RF[d] <- RF[a] | RF[b]; }
  op xor (d: GPR) "," (a: GPR) "," (b: GPR)
    Encode { I[31:26] = 0b000100; I[25:21] = d; I[20:16] = a; I[15:11] = b; }
    Action { RF[d] <- RF[a] ^ RF[b]; }
  op sll (d: GPR) "," (a: GPR) "," (b: GPR)
    Encode { I[31:26] = 0b000101; I[25:21] = d; I[20:16] = a; I[15:11] = b; }
    Action { RF[d] <- RF[a] << (RF[b] & 31); }
  op srl (d: GPR) "," (a: GPR) "," (b: GPR)
    Encode { I[31:26] = 0b000110; I[25:21] = d; I[20:16] = a; I[15:11] = b; }
    Action { RF[d] <- RF[a] >> (RF[b] & 31); }
  op sra (d: GPR) "," (a: GPR) "," (b: GPR)
    Encode { I[31:26] = 0b000111; I[25:21] = d; I[20:16] = a; I[15:11] = b; }
    Action { RF[d] <- asr(RF[a], RF[b] & 31); }
  op mul (d: GPR) "," (a: GPR) "," (b: GPR)
    Encode { I[31:26] = 0b001000; I[25:21] = d; I[20:16] = a; I[15:11] = b; }
    Action { RF[d] <- RF[a] * RF[b]; }
    Cost { Cycle = 1; Stall = 2; }
    Timing { Latency = 3; Usage = 1; }
  op addi (d: GPR) "," (a: GPR) "," (i: IMM16)
    Encode { I[31:26] = 0b001001; I[25:21] = d; I[20:16] = a; I[15:0] = i; }
    Action { RF[d] <- RF[a] + sext(i, 32); }
  op andi (d: GPR) "," (a: GPR) "," (i: IMM16)
    Encode { I[31:26] = 0b001010; I[25:21] = d; I[20:16] = a; I[15:0] = i; }
    Action { RF[d] <- RF[a] & sext(i, 32); }
  op ori (d: GPR) "," (a: GPR) "," (i: IMM16)
    Encode { I[31:26] = 0b001011; I[25:21] = d; I[20:16] = a; I[15:0] = i; }
    Action { RF[d] <- RF[a] | sext(i, 32); }
  op slli (d: GPR) "," (a: GPR) "," (i: SH5)
    Encode { I[31:26] = 0b001100; I[25:21] = d; I[20:16] = a; I[15:11] = i; }
    Action { RF[d] <- RF[a] << i; }
  op srli (d: GPR) "," (a: GPR) "," (i: SH5)
    Encode { I[31:26] = 0b001101; I[25:21] = d; I[20:16] = a; I[15:11] = i; }
    Action { RF[d] <- RF[a] >> i; }
  op li (d: GPR) "," (i: IMM16)
    Encode { I[31:26] = 0b001110; I[25:21] = d; I[15:0] = i; }
    Action { RF[d] <- sext(i, 32); }
  op lui (d: GPR) "," (i: IMM16)
    Encode { I[31:26] = 0b001111; I[25:21] = d; I[15:0] = i; }
    Action { RF[d] <- concat(i, 0x0000); }
  op lw (d: GPR) "," (o: OFF) "(" (a: GPR) ")"
    Encode { I[31:26] = 0b010000; I[25:21] = d; I[20:16] = a; I[9:0] = o; }
    Action { RF[d] <- DMEM[RF[a] + sext(o, 32)]; }
    Cost { Cycle = 1; Stall = 1; }
    Timing { Latency = 2; Usage = 1; }
  op sw (v: GPR) "," (o: OFF) "(" (a: GPR) ")"
    Encode { I[31:26] = 0b010001; I[25:21] = v; I[20:16] = a; I[9:0] = o; }
    Action { DMEM[RF[a] + sext(o, 32)] <- RF[v]; }
  op beq (a: GPR) "," (b: GPR) "," (t: TGT)
    Encode { I[31:26] = 0b010010; I[25:21] = a; I[20:16] = b; I[9:0] = t; }
    Action { if (RF[a] == RF[b]) { PC <- t; } }
    Cost { Cycle = 1; Stall = 1; }
    Timing { Latency = 1; Usage = 2; }
  op bne (a: GPR) "," (b: GPR) "," (t: TGT)
    Encode { I[31:26] = 0b010011; I[25:21] = a; I[20:16] = b; I[9:0] = t; }
    Action { if (RF[a] != RF[b]) { PC <- t; } }
    Cost { Cycle = 1; Stall = 1; }
    Timing { Latency = 1; Usage = 2; }
  op beqz (a: GPR) "," (t: TGT)
    Encode { I[31:26] = 0b010100; I[25:21] = a; I[9:0] = t; }
    Action { if (RF[a] == 0) { PC <- t; } }
    Cost { Cycle = 1; Stall = 1; }
    Timing { Latency = 1; Usage = 2; }
  op bnez (a: GPR) "," (t: TGT)
    Encode { I[31:26] = 0b010101; I[25:21] = a; I[9:0] = t; }
    Action { if (RF[a] != 0) { PC <- t; } }
    Cost { Cycle = 1; Stall = 1; }
    Timing { Latency = 1; Usage = 2; }
  op j (t: TGT)
    Encode { I[31:26] = 0b010110; I[9:0] = t; }
    Action { PC <- t; }
    Cost { Cycle = 1; Stall = 1; }
    Timing { Latency = 1; Usage = 2; }
  op jal (t: TGT)
    Encode { I[31:26] = 0b010111; I[9:0] = t; }
    Action { RF[31] <- zext(PC, 32); PC <- t; }
    Cost { Cycle = 1; Stall = 1; }
    Timing { Latency = 1; Usage = 2; }
  op jr (a: GPR)
    Encode { I[31:26] = 0b011000; I[20:16] = a; }
    Action { PC <- trunc(RF[a], 10); }
    Cost { Cycle = 1; Stall = 1; }
    Timing { Latency = 1; Usage = 2; }
  op halt
    Encode { I[31:26] = 0b111110; }
    Action { HLT <- 0b1; }
  op nop
    Encode { I[31:26] = 0b111111; }

Section Architectural_Information

issue_width = 1;
description = "5-stage pipelined RISC-V-flavoured 32-bit RISC with load-use and branch stalls";
`

// RISCV5 parses RISCV5Source; panics on error (compiled-in constant,
// covered by tests).
func RISCV5() *isdl.Description {
	d, err := isdl.Parse(RISCV5Source)
	if err != nil {
		panic("machines: RISCV5 description invalid: " + err.Error())
	}
	return d
}
