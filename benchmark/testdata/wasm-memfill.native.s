.text
.globl _start
_start:
	adrp x28, __wasm_mem
	add x28, x28, :lo12:__wasm_mem
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
	movz w9, #40000
	str x9, [sp, #0]
.Lw0_1:
	ldr x9, [sp, #0]
	movz w10, #31161
	movk w10, #40503, lsl #16
	mul w9, w9, w10
	movz w10, #65532
	movk w10, #3, lsl #16
	and w9, w9, w10
	str x9, [sp, #16]
	ldr x10, [sp, #0]
	ldr x11, [sp, #0]
	mul w10, w10, w11
	add x8, x9, #0
	movz w17, #65532
	movk w17, #3, lsl #16
	cmp x8, x17
	b.hi .Lwtrap_oob
	add x8, x28, x8
	str w10, [x8]
	ldr x9, [sp, #16]
	add x8, x9, #0
	movz w17, #65535
	movk w17, #3, lsl #16
	cmp x8, x17
	b.hi .Lwtrap_oob
	add x8, x28, x8
	ldrb w9, [x8]
	ldr x10, [sp, #16]
	movz w11, #2
	eor w10, w10, w11
	add x8, x10, #0
	movz w17, #65534
	movk w17, #3, lsl #16
	cmp x8, x17
	b.hi .Lwtrap_oob
	add x8, x28, x8
	ldrh w10, [x8]
	add w9, w9, w10
	ldr x10, [sp, #16]
	add x8, x10, #0
	movz w17, #65532
	movk w17, #3, lsl #16
	cmp x8, x17
	b.hi .Lwtrap_oob
	add x8, x28, x8
	ldrsw x10, [x8]
	add x9, x9, x10
	ldr x10, [sp, #8]
	add x9, x9, x10
	str x9, [sp, #8]
	ldr x9, [sp, #0]
	movz w10, #1
	sub w9, w9, w10
	str x9, [sp, #0]
	cbz w9, .Lw0_2
	b .Lw0_1
.Lw0_2:
	ldr x9, [sp, #8]
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
.bss
__wasm_mem:
	.space 262144
