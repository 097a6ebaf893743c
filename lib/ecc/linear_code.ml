module type S = sig
  val name : string
  val blowup : int

  val encode_row_into : src:Nocap_vec.Fv.t -> dst:Nocap_vec.Fv.t -> unit
  (** Encode one row in place: [src] is a length-[cols] message view, [dst]
      a length-[blowup * cols] codeword view ([dst] is fully overwritten).
      Safe to call from pool workers (scratch is domain-local). The Orion
      commit pipeline streams rows through this instead of materializing
      encode output in one pass. *)

  val row_encode_ns : cols:int -> int
  (** Estimated cost of one {!encode_row_into} call in nanoseconds — the
      hint callers feed {!Nocap_parallel.Pool.grain_of_ns} and the commit
      pipeline uses to weight encode work against hash work. *)

  val query_count : int
end

type t = (module S)
