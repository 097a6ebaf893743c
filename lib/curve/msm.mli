(** Multi-scalar multiplication: [sum_i scalars.(i) * points.(i)].

    MSM dominates Groth16 proof generation — it is the kernel PipeZK's
    dedicated pipelines accelerate (Sec. III, Sec. IX-A). {!pippenger}
    implements the bucket method; the naive sum of scalar multiplications
    it is tested against is [Msm_oracle.naive] in [test/oracle]. *)

module Fr = Zk_field.Fr_bls

val pippenger : ?window:int -> Fr.t array -> G1.t array -> G1.t
(** Bucket-method MSM. [window] defaults to a size tuned to the input length
    (roughly [log2 n - 2], clamped to [\[2, 16\]]). Per-window bucket
    accumulation runs across the {!Nocap_parallel.Pool} domains; the result
    is the same group element for every domain count, and equals the
    single-domain serial reference in [test/oracle/msm_oracle.ml]. *)

val window_for : int -> int
(** The default window size chosen for [n] points. *)

val point_adds_estimate : n:int -> window:int -> int
(** Estimated number of group additions Pippenger performs — feeds the
    Groth16/PipeZK cost model. *)
