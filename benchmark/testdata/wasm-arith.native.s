.text
.globl _start
_start:
	bl __wf0
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
	sub sp, sp, #64
	str x30, [sp, #24]
	mov x8, #0
	str x8, [sp, #0]
	str x8, [sp, #8]
	str x8, [sp, #16]
	movz w9, #60000
	str x9, [sp, #0]
	movz x9, #2259
	movk x9, #34211, lsl #16
	movk x9, #27272, lsl #32
	movk x9, #9279, lsl #48
	str x9, [sp, #8]
.Lw0_1:
	ldr x9, [sp, #8]
	movz x10, #32557
	movk x10, #19605, lsl #16
	movk x10, #62509, lsl #32
	movk x10, #22609, lsl #48
	mul x9, x9, x10
	movz x10, #33103
	movk x10, #63335, lsl #16
	movk x10, #31614, lsl #32
	movk x10, #5125, lsl #48
	add x9, x9, x10
	str x9, [sp, #8]
	ldr x10, [sp, #0]
	movz x11, #63
	and x10, x10, x11
	neg x27, x10
	ror x9, x9, x27
	ldr x10, [sp, #16]
	eor x9, x9, x10
	str x9, [sp, #16]
	ldr x9, [sp, #8]
	mov w9, w9
	movz w10, #1
	orr w9, w9, w10
	ldr x10, [sp, #0]
	movz w11, #1
	orr w10, w10, w11
	cbz w10, .Lwtrap_div
	udiv w9, w9, w10
	ldr x10, [sp, #16]
	add x9, x9, x10
	str x9, [sp, #16]
	ldr x9, [sp, #0]
	movz w10, #1
	sub w9, w9, w10
	str x9, [sp, #0]
	cbz w9, .Lw0_2
	b .Lw0_1
.Lw0_2:
	ldr x9, [sp, #16]
.Lw0_ret:
	mov x0, x9
	ldr x30, [sp, #24]
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
__wasm_result:
	.quad 0
