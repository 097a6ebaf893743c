(** Reed-Solomon code with blowup 4, implemented with the NTT primitive
    exactly as Sec. V-A describes: the [n]-element message (viewed as
    polynomial coefficients) is zero-extended to [4n] and a [4n]-point NTT
    evaluates it on the group of [4n]-th roots of unity.

    This is the Shockwave substitution the paper applies to Orion to make the
    encoder accelerator-friendly; the 189-query proximity test at this rate
    gives 128-bit security (Sec. VII-A). *)

include Linear_code.S
