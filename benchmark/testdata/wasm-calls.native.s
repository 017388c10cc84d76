.text
.globl _start
_start:
	adrp x28, __wasm_mem
	add x28, x28, :lo12:__wasm_mem
	adrp x0, __wasm_table
	add x0, x0, :lo12:__wasm_table
	adrp x1, __wf1
	add x1, x1, :lo12:__wf1
	str x1, [x0, #0]
	adrp x1, __wf2
	add x1, x1, :lo12:__wf2
	str x1, [x0, #16]
	adrp x1, __wf3
	add x1, x1, :lo12:__wf3
	str x1, [x0, #32]
	bl __wf4
	adrp x1, __wasm_result
	add x1, x1, :lo12:__wasm_result
	str x0, [x1]
	mov x0, #1
	mov x2, #8
	ldr x30, [x21, #8]
	blr x30
	mov x0, #0
	ldr x30, [x21, #0]
	blr x30
__wf0:
	sub sp, sp, #48
	str x30, [sp, #16]
	str x0, [sp, #0]
	mov x8, #0
	str x8, [sp, #8]
	ldr x9, [sp, #0]
	movz w10, #2
	cmp w9, w10
	cset w9, lt
	cbz w9, .Lw0_2
	ldr x9, [sp, #0]
	b .Lw0_1
.Lw0_2:
	ldr x9, [sp, #0]
	movz w10, #3
	lsl w9, w9, w10
	add x8, x9, #0
	movz w17, #65532
	cmp x8, x17
	b.hi .Lwtrap_oob
	add x8, x28, x8
	ldr w9, [x8]
	str x9, [sp, #8]
	cbz w9, .Lw0_4
	ldr x9, [sp, #8]
	movz w10, #1
	sub w9, w9, w10
	b .Lw0_3
.Lw0_4:
	ldr x9, [sp, #0]
	movz w10, #1
	sub w9, w9, w10
	str x9, [sp, #24]
	mov x0, x9
	bl __wf0
	mov x9, x0
	ldr x10, [sp, #0]
	movz w11, #2
	sub w10, w10, w11
	str x9, [sp, #24]
	str x10, [sp, #32]
	mov x0, x10
	bl __wf0
	mov x10, x0
	ldr x9, [sp, #24]
	add w9, w9, w10
	str x9, [sp, #8]
	ldr x9, [sp, #0]
	movz w10, #3
	lsl w9, w9, w10
	ldr x10, [sp, #8]
	movz w11, #1
	add w10, w10, w11
	add x8, x9, #0
	movz w17, #65532
	cmp x8, x17
	b.hi .Lwtrap_oob
	add x8, x28, x8
	str w10, [x8]
	ldr x9, [sp, #8]
.Lw0_3:
.Lw0_1:
.Lw0_ret:
	mov x0, x9
	ldr x30, [sp, #16]
	add sp, sp, #48
	ret
__wf1:
	sub sp, sp, #48
	str x30, [sp, #16]
	str x0, [sp, #0]
	str x1, [sp, #8]
	ldr x9, [sp, #0]
	ldr x10, [sp, #8]
	add w9, w9, w10
.Lw1_ret:
	mov x0, x9
	ldr x30, [sp, #16]
	add sp, sp, #48
	ret
__wf2:
	sub sp, sp, #48
	str x30, [sp, #16]
	str x0, [sp, #0]
	str x1, [sp, #8]
	ldr x9, [sp, #0]
	ldr x10, [sp, #8]
	mul w9, w9, w10
.Lw2_ret:
	mov x0, x9
	ldr x30, [sp, #16]
	add sp, sp, #48
	ret
__wf3:
	sub sp, sp, #48
	str x30, [sp, #16]
	str x0, [sp, #0]
	str x1, [sp, #8]
	ldr x9, [sp, #0]
	ldr x10, [sp, #8]
	eor w9, w9, w10
.Lw3_ret:
	mov x0, x9
	ldr x30, [sp, #16]
	add sp, sp, #48
	ret
__wf4:
	sub sp, sp, #64
	str x30, [sp, #16]
	mov x8, #0
	str x8, [sp, #0]
	str x8, [sp, #8]
	movz w9, #24
	str x9, [sp, #24]
	mov x0, x9
	bl __wf0
	mov x9, x0
	str x9, [sp, #8]
	movz w9, #50000
	str x9, [sp, #0]
.Lw4_1:
	ldr x9, [sp, #8]
	ldr x10, [sp, #0]
	ldr x11, [sp, #0]
	movz w12, #3
	cbz w12, .Lwtrap_div
	udiv w27, w11, w12
	msub w11, w27, w12, w11
	cmp x11, #3
	b.hs .Lwtrap_callidx
	adrp x17, __wasm_table
	add x17, x17, :lo12:__wasm_table
	add x17, x17, x11, lsl #4
	ldr x27, [x17, #8]
	cbz x27, .Lwtrap_callidx
	cmp x27, #3
	b.ne .Lwtrap_sig
	ldr x27, [x17]
	str x9, [sp, #24]
	str x10, [sp, #32]
	mov x0, x9
	mov x1, x10
	blr x27
	mov x9, x0
	str x9, [sp, #8]
	ldr x9, [sp, #0]
	movz w10, #1
	sub w9, w9, w10
	str x9, [sp, #0]
	cbz w9, .Lw4_2
	b .Lw4_1
.Lw4_2:
	ldr x9, [sp, #8]
.Lw4_ret:
	mov x0, x9
	ldr x30, [sp, #16]
	add sp, sp, #64
	ret
.Lwtrap_unreachable:
	mov x0, #225
	b .Lwtrap_exit
.Lwtrap_div:
	mov x0, #226
	b .Lwtrap_exit
.Lwtrap_ovf:
	mov x0, #227
	b .Lwtrap_exit
.Lwtrap_oob:
	mov x0, #228
	b .Lwtrap_exit
.Lwtrap_callidx:
	mov x0, #229
	b .Lwtrap_exit
.Lwtrap_sig:
	mov x0, #230
	b .Lwtrap_exit
.Lwtrap_exit:
	ldr x30, [x21, #0]
	blr x30
.data
__wasm_table:
	.quad 0
	.quad 3
	.quad 0
	.quad 3
	.quad 0
	.quad 3
__wasm_result:
	.quad 0
.bss
__wasm_mem:
	.space 65536
