(* STARK generality demo (Sec. IV-E): the same primitives NoCap accelerates
   for Spartan+Orion — NTTs, SHA3 Merkle trees, vector arithmetic — also run
   a complete zkSTARK. Here: proving correct execution of a Fibonacci-style
   computation with a transparent, post-quantum, logarithmic-size proof.

   Run with: dune exec examples/stark_demo.exe *)

open Nocap_repro

let () =
  let n = 1024 in
  let a0 = Gf.of_int 1 and a1 = Gf.of_int 1 in
  Printf.printf "proving a %d-step Fibonacci execution trace...\n%!" n;
  let t0 = Unix.gettimeofday () in
  let proof, last = Stark.prove ~n ~a0 ~a1 in
  Printf.printf "claimed final value: %s\n" (Gf.to_string last);
  Printf.printf "proved in %.2f s; proof is %d bytes (trace itself is %d bytes)\n%!"
    (Unix.gettimeofday () -. t0)
    (Stark.proof_size_bytes proof)
    (8 * n);
  (match Stark.verify ~n ~a0 ~a1 ~claimed_last:last proof with
  | Ok () -> print_endline "verified: the whole execution is correct"
  | Error e -> failwith e);
  (* A prover lying about the result is caught. *)
  (match Stark.verify ~n ~a0 ~a1 ~claimed_last:(Gf.add last Gf.one) proof with
  | Ok () -> failwith "BUG: accepted a false execution claim"
  | Error e -> Printf.printf "a false final value is rejected (%s)\n" e);
  (* The FRI engine underneath also works standalone as a low-degree test. *)
  let rng = Rng.create 7L in
  let coeffs = Array.init 256 (fun _ -> Gf.random rng) in
  let t = Transcript.create "demo" in
  let fri_proof = Fri.prove Fri.default_params t coeffs in
  let v = Transcript.create "demo" in
  match Fri.verify Fri.default_params v ~degree_bound:256 fri_proof with
  | Ok () ->
    Printf.printf "standalone FRI low-degree test: OK (%d byte proof)\n"
      (Fri.proof_size_bytes fri_proof)
  | Error e -> failwith (Verify_error.to_string e)
