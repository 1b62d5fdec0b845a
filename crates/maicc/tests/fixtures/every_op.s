# One line per RV32IMA operation and per CMem-extension operation, at
# edge field values; branch and jump targets are labels.
start:
    lui         a0, 0xfffff
    jal         ra, end
    jalr        ra, -2048(a0)
    beq         a0, a1, start
    bne         s11, zero, start
    blt         t6, sp, end
    bge         gp, tp, end
    bltu        t0, t1, start
    bgeu        t2, s0, end
    lb          a0, -2048(sp)
    lh          a1, 2047(sp)
    lw          a2, 0(s1)
    lbu         a3, -1(s2)
    lhu         a4, 4(s3)
    sb          a5, -2048(s4)
    sh          a6, 2047(s5)
    sw          a7, (s6)
    addi        a0, a1, -2048
    slti        a2, a3, 2047
    sltiu       a4, a5, -1
    xori        a6, a7, 0x7ff
    ori         s2, s3, -2048
    andi        s4, s5, 255
    slli        s6, s7, 31
    srli        s8, s9, 0
    srai        s10, s11, 31
    add         t3, t4, t5
    sub         x28, x29, x30
    sll         t6, ra, sp
    slt         gp, tp, t0
    sltu        t1, t2, s0
    xor         s1, a0, a1
    srl         a2, a3, a4
    sra         a5, a6, a7
    or          s2, s3, s4
    and         s5, s6, s7
    mul         s8, s9, s10
    mulh        s11, t3, t4
    mulhsu      t5, t6, zero
    mulhu       x31, x0, x1
    div         a0, a1, a2
    divu        a3, a4, a5
    rem         a6, a7, s2
    remu        s3, s4, s5
    amoswap.w   a0, a1, (a2)
    amoadd.w    a3, a4, (a5)
    amoxor.w    a6, a7, (s2)
    amoand.w    s3, s4, (s5)
    amoor.w     s6, s7, (s8)
    amomin.w    s9, s10, (s11)
    amomax.w    t3, t4, (t5)
    amominu.w   t6, zero, (ra)
    amomaxu.w   sp, gp, (tp)
    lr.w        t0, (t1)
    sc.w        t2, s0, (s1)
    fence
    ecall
    mac.c       t0, s7[63], s7[0], n16
    mac.c       a0, s0[0], s0[63], n2
    move.c      s7[63], s0[0], n4
    move.c      s0[0], s7[63], n8
    setrow.c    s7[63], 1
    setrow.c    s0[0], 0
    shiftrow.c  s7[63], -7
    shiftrow.c  s0[0], +0
    loadrow.rc  s7[63], (t6)
    storerow.rc s0[0], (zero)
    setmask.c   s7, t6
end:
    ebreak
