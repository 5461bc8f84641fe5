//go:build ignore

// gen_native.go emits the amd64 SHA-NI compression kernels
// (native_amd64.s), three of them:
//
//   - sha256ni absorbs one 64-byte block into one chaining state;
//   - sha256ni2 absorbs one block into each of two independent states with
//     the two round chains interleaved. SHA256RNDS2 carries a serial
//     dependency chain of 32 instructions per block, so a single message is
//     latency-bound; interleaving two independent messages lets the
//     out-of-order core overlap the two chains, which is what the
//     lane-batch entry points (Compress256x8, Compress256Lanes) exploit;
//   - sha256niChain2 is the fused chain kernel: it advances two staged
//     single-block messages a given number of steps, both interleaved as in
//     sha256ni2. Each step compresses the block from one shared seed state
//     (never stored back), writes the first n bytes of the big-endian digest
//     into the block at valOff and increments the big-endian 32-bit word at
//     ctrOff, which it keeps in a register between steps. The block is all
//     it writes. This is one WOTS+ chain segment per message with no Go code
//     between the compressions; the offsets and n are arguments, so the
//     kernel knows nothing of the SPHINCS+ address layout.
//
// The round skeleton is the canonical Intel SHA extensions schedule
// (alternating SHA256RNDS2 on the ABEF/CDGH register pair, with
// SHA256MSG1/SHA256MSG2 producing the message schedule in four rolling
// registers). Only SSE encodings are emitted, so the kernels need SSSE3,
// SSE4.1 and the SHA extensions but not AVX.
//
// Regenerate with:
//
//	go run gen_native.go
package main

import (
	"bytes"
	"fmt"
	"os"
)

// k256 round constants, emitted as an assembly table.
var k256 = [64]uint32{
	0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
	0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
	0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
	0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
	0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
	0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
	0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
	0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
}

// msg describes one interleaved message's register assignment.
type msg struct {
	state string // pointer register holding *State256
	block string // pointer register holding *[64]byte
	s0    string // ABEF working state
	s1    string // CDGH working state
	w     [4]string
}

func main() {
	var b bytes.Buffer
	p := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }

	p("// Code generated by gen_native.go. DO NOT EDIT.")
	p("")
	p("//go:build amd64")
	p("")
	p("#include \"textflag.h\"")
	p("")
	p("// SHA-256 round constants.")
	for i, k := range k256 {
		p("DATA k256n<>+0x%02x(SB)/4, $0x%08x", i*4, k)
	}
	p("GLOBL k256n<>(SB), RODATA|NOPTR, $256")
	p("")
	p("// PSHUFB mask turning the four little-endian dword loads of a 16-byte")
	p("// message chunk into big-endian schedule words.")
	p("DATA nflip<>+0(SB)/8, $0x0405060700010203")
	p("DATA nflip<>+8(SB)/8, $0x0c0d0e0f08090a0b")
	p("GLOBL nflip<>(SB), RODATA|NOPTR, $16")

	// Register map, shared by all three kernels:
	//   X0 = round constant + schedule word fed to SHA256RNDS2 (implicit)
	//   X7 = scratch for the schedule PALIGNR and the state shuffles
	//   X8 = byte-flip mask during message load (and, in the chain kernel,
	//        digest store), scratch in the epilogue of the other two
	// message A: states X1/X2, schedule X3-X6
	// message B: states X9/X10, schedule X11-X14
	a := msg{state: "DI", block: "SI", s0: "X1", s1: "X2", w: [4]string{"X3", "X4", "X5", "X6"}}
	bm := msg{state: "R8", block: "R9", s0: "X9", s1: "X10", w: [4]string{"X11", "X12", "X13", "X14"}}

	// emitRounds emits the 64 rounds of every message in msgs, interleaved
	// group by group; the working states are live in s0/s1 and the block
	// is read from memory through the block register.
	emitRounds := func(msgs []msg) {
		for j := 0; j < 16; j++ {
			p("")
			p("\t// Rounds %d-%d.", j*4, j*4+3)
			for _, m := range msgs {
				cur := m.w[j%4]
				if j < 4 {
					p("\tMOVOU %d(%s), X0", j*16, m.block)
					p("\tPSHUFB X8, X0")
					p("\tMOVO X0, %s", cur)
				} else {
					p("\tMOVO %s, X0", cur)
				}
				p("\tPADDD %d(AX), X0", j*16)
				p("\tSHA256RNDS2 X0, %s, %s", m.s0, m.s1)
				if j >= 3 && j <= 14 {
					// Fold cur into the schedule word four groups ahead.
					p("\tMOVO %s, X7", cur)
					p("\tPALIGNR $0x04, %s, X7", m.w[(j+3)%4])
					p("\tPADDD X7, %s", m.w[(j+1)%4])
					p("\tSHA256MSG2 %s, %s", cur, m.w[(j+1)%4])
				}
				p("\tPSHUFD $0x0e, X0, X0")
				p("\tSHA256RNDS2 X0, %s, %s", m.s1, m.s0)
				if j >= 1 && j <= 12 {
					p("\tSHA256MSG1 %s, %s", cur, m.w[(j+3)%4])
				}
			}
		}
	}

	// toPair shuffles a state held as h0..h3 / h4..h7 into the ABEF/CDGH
	// pair the SHA instructions operate on; fromPair is its inverse (X7
	// scratch).
	toPair := func(s0, s1, scratch string) {
		p("\tPSHUFD $0xb1, %s, %s", s0, s0)
		p("\tPSHUFD $0x1b, %s, %s", s1, s1)
		p("\tMOVO %s, %s", s0, scratch)
		p("\tPALIGNR $0x08, %s, %s", s1, s0)
		p("\tPBLENDW $0xf0, %s, %s", scratch, s1)
	}
	fromPair := func(s0, s1 string) {
		p("\tPSHUFD $0x1b, %s, %s", s0, s0)
		p("\tPSHUFD $0xb1, %s, %s", s1, s1)
		p("\tMOVO %s, X7", s0)
		p("\tPBLENDW $0xf0, %s, %s", s1, s0)
		p("\tPALIGNR $0x08, X7, %s", s1)
	}

	emitKernel := func(name, args string, frame int, msgs []msg) {
		p("")
		p("// func %s%s", name, args)
		p("TEXT ·%s(SB), NOSPLIT, $0-%d", name, frame)
		names := []string{"s0", "s1", "b0", "b1"}
		if len(msgs) == 1 {
			names = []string{"state", "", "block", ""}
		}
		off := 0
		for i, m := range msgs {
			p("\tMOVQ %s+%d(FP), %s", names[i], off, m.state)
			off += 8
		}
		for i, m := range msgs {
			p("\tMOVQ %s+%d(FP), %s", names[2+i], off, m.block)
			off += 8
		}
		p("\tLEAQ k256n<>+0(SB), AX")
		p("\tMOVOU nflip<>+0(SB), X8")
		p("")
		p("\t// Load h0..h7 and shuffle each state into the ABEF/CDGH pair")
		p("\t// the SHA instructions operate on.")
		for _, m := range msgs {
			p("\tMOVOU (%s), %s", m.state, m.s0)
			p("\tMOVOU 16(%s), %s", m.state, m.s1)
			toPair(m.s0, m.s1, "X7")
		}
		emitRounds(msgs)
		p("")
		p("\t// Re-derive each initial ABEF/CDGH pair from memory, add it to")
		p("\t// the working state, and store the result back in h0..h7 order.")
		for _, m := range msgs {
			p("\tMOVOU (%s), X0", m.state)
			p("\tMOVOU 16(%s), X7", m.state)
			toPair("X0", "X7", "X8")
			p("\tPADDD X0, %s", m.s0)
			p("\tPADDD X7, %s", m.s1)
			fromPair(m.s0, m.s1)
			p("\tMOVOU %s, (%s)", m.s0, m.state)
			p("\tMOVOU %s, 16(%s)", m.s1, m.state)
		}
		p("\tRET")
	}

	// emitChainKernel emits sha256niChain2 over messages A and B. Extra
	// registers: DI = seed, BX = valOff, DX = ctrOff, R12 = n, CX = steps
	// left, R10/R11 = each block's hash word in host order, R13 = scratch.
	// The seed's ABEF/CDGH pair is derived once and kept in the 32-byte
	// frame; X8 stays the byte-flip mask for the whole call, since the
	// epilogue takes the seed pair from the frame instead of re-deriving it.
	emitChainKernel := func(msgs []msg) {
		p("")
		p("// func sha256niChain2(seed *State256, b0, b1 *[BlockSize256]byte, valOff, ctrOff, n, steps int)")
		p("TEXT ·sha256niChain2(SB), NOSPLIT, $32-56")
		p("\tMOVQ seed+0(FP), DI")
		p("\tMOVQ b0+8(FP), %s", msgs[0].block)
		p("\tMOVQ b1+16(FP), %s", msgs[1].block)
		p("\tMOVQ valOff+24(FP), BX")
		p("\tMOVQ ctrOff+32(FP), DX")
		p("\tMOVQ n+40(FP), R12")
		p("\tMOVQ steps+48(FP), CX")
		p("\tTESTQ CX, CX")
		p("\tJEQ done")
		p("\tLEAQ k256n<>+0(SB), AX")
		p("\tMOVOU nflip<>+0(SB), X8")
		p("")
		p("\t// The seed's ABEF/CDGH pair, once for every step of both messages.")
		p("\tMOVOU (DI), X1")
		p("\tMOVOU 16(DI), X2")
		toPair("X1", "X2", "X7")
		p("\tMOVOU X1, 0(SP)")
		p("\tMOVOU X2, 16(SP)")
		p("")
		p("\t// Each block's hash word, resident in a register from here on.")
		for i, m := range msgs {
			r := []string{"R10", "R11"}[i]
			p("\tMOVL (%s)(DX*1), %s", m.block, r)
			p("\tBSWAPL %s", r)
		}
		p("")
		p("loop:")
		for _, m := range msgs {
			p("\tMOVOU 0(SP), %s", m.s0)
			p("\tMOVOU 16(SP), %s", m.s1)
		}
		emitRounds(msgs)
		p("")
		p("\t// Add the seed pair, return each state to h0..h7 order and flip it")
		p("\t// to the big-endian digest bytes.")
		for _, m := range msgs {
			p("\tMOVOU 0(SP), X0")
			p("\tMOVOU 16(SP), X7")
			p("\tPADDD X0, %s", m.s0)
			p("\tPADDD X7, %s", m.s1)
			fromPair(m.s0, m.s1)
			p("\tPSHUFB X8, %s", m.s0)
			p("\tPSHUFB X8, %s", m.s1)
		}
		p("")
		p("\t// Write the first n digest bytes over the value: 16, 24 or 32.")
		for _, m := range msgs {
			p("\tMOVOU %s, (%s)(BX*1)", m.s0, m.block)
		}
		p("\tCMPQ R12, $24")
		p("\tJLT counters")
		p("\tJEQ half")
		for _, m := range msgs {
			p("\tMOVOU %s, 16(%s)(BX*1)", m.s1, m.block)
		}
		p("\tJMP counters")
		p("")
		p("half:")
		for _, m := range msgs {
			p("\tMOVQ %s, 16(%s)(BX*1)", m.s1, m.block)
		}
		p("")
		p("counters:")
		for i, m := range msgs {
			r := []string{"R10", "R11"}[i]
			p("\tINCL %s", r)
			p("\tMOVL %s, R13", r)
			p("\tBSWAPL R13")
			p("\tMOVL R13, (%s)(DX*1)", m.block)
		}
		p("\tDECQ CX")
		p("\tJNZ loop")
		p("")
		p("done:")
		p("\tRET")
	}

	emitKernel("sha256ni", "(state *State256, block *[BlockSize256]byte)", 16, []msg{a})
	emitKernel("sha256ni2", "(s0, s1 *State256, b0, b1 *[BlockSize256]byte)", 32, []msg{a, bm})
	emitChainKernel([]msg{a, bm})

	p("")
	p("// func cpuidLeaf(leaf, sub uint32) (eax, ebx, ecx, edx uint32)")
	p("TEXT ·cpuidLeaf(SB), NOSPLIT, $0-24")
	p("\tMOVL leaf+0(FP), AX")
	p("\tMOVL sub+4(FP), CX")
	p("\tCPUID")
	p("\tMOVL AX, eax+8(FP)")
	p("\tMOVL BX, ebx+12(FP)")
	p("\tMOVL CX, ecx+16(FP)")
	p("\tMOVL DX, edx+20(FP)")
	p("\tRET")

	if err := os.WriteFile("native_amd64.s", b.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
