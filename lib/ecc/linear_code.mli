(** Common interface for the linear error-correcting codes used by the Orion
    polynomial commitment.

    A code maps an [n]-element message to a [blowup * n]-element codeword and
    is linear: [encode (m1 + m2) = encode m1 + encode m2], the property Orion
    exploits to let the verifier check random linear combinations of committed
    rows (Sec. V-A). Encoding is one row at a time on flat vectors; Orion's
    commit, opening and verifier all go through {!S.encode_row_into}. *)

module type S = sig
  val name : string

  val blowup : int
  (** Codeword length divided by message length (4 in the paper's
      configuration). *)

  val encode_row_into : src:Nocap_vec.Fv.t -> dst:Nocap_vec.Fv.t -> unit
  (** Encode one row in place: [src] is a length-[cols] message view, [dst]
      a length-[blowup * cols] codeword view, fully overwritten. The message
      length must be a power of two. Safe to call from pool workers
      (scratch is domain-local). The Orion commit pipeline streams rows
      through this to overlap encoding with column hashing.
      @raise Invalid_argument on a message length that is not a power of
      two or a [dst] that is not [blowup] times as long. *)

  val row_encode_ns : cols:int -> int
  (** Estimated cost of one {!encode_row_into} call in nanoseconds — the
      hint callers feed {!Nocap_parallel.Pool.grain_of_ns} and the commit
      pipeline uses to weight encode work against hash work. *)

  val query_count : int
  (** Number of codeword positions the verifier checks for 128-bit security
      (189 for Reed-Solomon at blowup 4; 1,222 for the expander code,
      Sec. VII-A). *)
end

type t = (module S)
