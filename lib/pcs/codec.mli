(** Shared binary codec for proof blobs.

    Writers append little-endian fixed-width fields to a [Buffer.t]; the
    reader is total (bounds-checked, no exceptions) and rejects implausible
    length fields before allocating, so [proof_of_bytes]-style decoders can
    be fed untrusted data. Every backend's commitment/eval-proof byte form
    ({!Pcs.S.write_commitment} and friends) is built from these helpers, so
    the framing conventions (8-byte lengths, 32-byte digests, canonical
    field elements) are uniform across backends. *)

module Gf = Zk_field.Gf
module Fv = Nocap_vec.Fv

(** {2 Writer} *)

val put_int : Buffer.t -> int -> unit
val put_byte : Buffer.t -> char -> unit
val put_gf : Buffer.t -> Gf.t -> unit

val put_gf_array : Buffer.t -> Gf.t array -> unit
(** Length-prefixed. *)

val put_fv : Buffer.t -> Fv.t -> unit
(** Length-prefixed; the same bytes as {!put_gf_array} of the elements. *)

val put_digest : Buffer.t -> string -> unit
(** Raw 32 bytes, no length prefix. *)

val put_digest_lanes : Buffer.t -> Fv.t -> unit
(** Digests held as flat lanes (4 little-endian lanes each, Keccak's flat
    digest layout), each written as its raw 32 bytes: the same bytes as
    {!put_digest} of every digest in turn.
    @raise Invalid_argument unless the length is a multiple of 4. *)

(** {2 Reader} *)

type reader
(** A cursor over immutable bytes. All getters return [Error] (never raise)
    on truncation or malformed content; errors carry a {!Verify_error}
    category ([Truncated], [Malformed_field], [Bad_header]). *)

val reader : bytes -> reader
val pos : reader -> int
val remaining : reader -> int

val max_len : int
(** Upper bound accepted for any single length field (2^28): a decoded
    length beyond this is rejected before any allocation happens. *)

val need : reader -> int -> (unit, Verify_error.t) result
val get_byte : reader -> (char, Verify_error.t) result

val get_len : reader -> (int, Verify_error.t) result
(** A u64 validated against [0, max_len]. *)

val get_gf : reader -> (Gf.t, Verify_error.t) result
(** Rejects non-canonical encodings (>= the field modulus). *)

val get_fv : reader -> (Fv.t, Verify_error.t) result
(** The inverse of {!put_fv}: a length ({!get_len}), then that many
    elements into a flat vector with one bounds check, one pass of word
    reads and a canonicality pass. Every error (category and message) is
    the one a {!get_gf} per element, after the length and a bounds check
    of the whole run, gives on the same bytes. *)

val get_fv_into : reader -> len:int -> Fv.t -> pos:int -> (unit, Verify_error.t) result
(** [get_fv_into r ~len dst ~pos] reads [len] elements (no length prefix)
    into [dst] at [pos], with {!get_fv}'s checks; on [Error], the contents of
    that range are unspecified.
    @raise Invalid_argument if the range does not fit [dst]. *)

val get_digest : reader -> (string, Verify_error.t) result

val need_digests : reader -> int -> (unit, Verify_error.t) result
(** The bounds check of [count] consecutive {!get_digest} calls, with the
    error the first failing one gives. *)

val get_digest_lanes_into :
  reader -> count:int -> Fv.t -> pos:int -> (unit, Verify_error.t) result
(** Read [count] raw digests as flat lanes into [dst] at lane [pos]. Fails
    exactly as [count] calls of {!get_digest} would ({!need_digests}).
    @raise Invalid_argument if the range does not fit [dst]. *)

val get_list :
  reader -> (reader -> ('a, Verify_error.t) result) -> ('a list, Verify_error.t) result

val get_array :
  reader -> (reader -> ('a, Verify_error.t) result) -> ('a array, Verify_error.t) result

(** {2 Growable flat buffers}

    Decoders of concatenated runs (Orion's columns, FRI's opened pairs
    and every authentication path) append to one flat buffer. Callers
    bound each [n] and [hint] by the bytes left to read, so a hostile
    length cannot over-allocate. *)

type fill = { mutable buf : Fv.t; mutable used : int }
(** [buf.{0 .. used - 1}] is filled; the rest is spare room. *)

val fill : unit -> fill
(** Empty, with no room. *)

val reserve : fill -> int -> hint:int -> unit
(** [reserve f n ~hint] makes room for [n] more elements. When it must
    grow, the new buffer holds at least [hint] elements (the size the
    caller expects the whole section to reach) and at least twice the old
    one. *)

val contents : fill -> Fv.t
(** The filled prefix: the buffer itself when it is exactly full, else a
    view. *)

val expect_string : reader -> string -> (unit, Verify_error.t) result
(** Consume and compare a fixed literal (e.g. a magic prefix); mismatch and
    short input are both [Bad_header]. *)

val expect_end : reader -> (unit, Verify_error.t) result
(** [Malformed_field] unless the cursor consumed every byte. *)
