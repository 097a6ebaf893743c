module Gf = Zk_field.Gf
module Fv = Nocap_vec.Fv
module Keccak = Zk_hash.Keccak
module Rng = Zk_util.Rng
module R1cs = Zk_r1cs.R1cs
module Synthetic = Zk_workloads.Synthetic
module Sumcheck = Zk_sumcheck.Sumcheck
module Spartan = Zk_spartan.Spartan
module O = Zk_orion.Orion
module Fp = Zk_orion.Fri_pcs
module Fri = Zk_orion.Fri
module Spartan_fri = Zk_spartan.Spartan.Make (Zk_orion.Fri_pcs)

(* All targets prove the same fixed statement; mutators must only ever see
   proofs whose honest form verifies against it. *)
let statement_seed = 7L
let prover_seed = 11L
let n_constraints = 200

(* Where run [k] starts in a buffer of concatenated runs of these lengths. *)
let column_start lens k =
  let pos = ref 0 in
  for i = 0 to k - 1 do
    pos := !pos + lens.(i)
  done;
  !pos

let statement () =
  let inst, asn = Synthetic.circuit ~n_constraints ~seed:statement_seed () in
  (inst, R1cs.public_io inst asn)

let nudge rng x = Gf.add x (Gf.of_int (1 + Rng.int rng 1000))

let tamper_digest rng d =
  let b = Bytes.of_string d in
  let i = Rng.int rng (Bytes.length b) in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Rng.int rng 255)));
  Bytes.to_string b

module Build (S : Zk_spartan.Spartan.S) = struct
  (* Structural mutators start from a fresh decode of the honest bytes each
     draw, corrupt exactly one thing, and re-serialize; [reser] returns
     [Some] unconditionally so mutators read uniformly as [bytes option]. *)
  let target ~extra () =
    let inst, asn = Synthetic.circuit ~n_constraints ~seed:statement_seed () in
    let io = R1cs.public_io inst asn in
    let params = S.test_params in
    let proof, _stats = S.prove ~rng:(Rng.create prover_seed) params inst asn in
    let honest = S.proof_to_bytes proof in
    let verify data =
      Result.bind (S.proof_of_bytes data) (fun p -> S.verify params inst ~io p)
    in
    let decode () =
      match S.proof_of_bytes honest with
      | Ok p -> p
      | Error _ -> assert false (* honest bytes round-trip by construction *)
    in
    let reser p = Some (S.proof_to_bytes p) in
    let mut_rep name f =
      ( name,
        fun rng ->
          let p = decode () in
          let reps = Array.copy p.S.reps in
          if Array.length reps = 0 then None
          else begin
            let i = Rng.int rng (Array.length reps) in
            match f rng reps.(i) with
            | None -> None
            | Some rep ->
              reps.(i) <- rep;
              reser { p with S.reps = reps }
          end )
    in
    let perturb_poly rng (sc : Sumcheck.proof) =
      let rp = Array.map Array.copy sc.Sumcheck.round_polys in
      if Array.length rp = 0 then None
      else begin
        let i = Rng.int rng (Array.length rp) in
        if Array.length rp.(i) = 0 then None
        else begin
          let j = Rng.int rng (Array.length rp.(i)) in
          rp.(i).(j) <- nudge rng rp.(i).(j);
          Some { Sumcheck.round_polys = rp }
        end
      end
    in
    let generic =
      [
        mut_rep "nudge_va" (fun rng r -> Some { r with S.va = nudge rng r.S.va });
        mut_rep "nudge_vb" (fun rng r -> Some { r with S.vb = nudge rng r.S.vb });
        mut_rep "nudge_vc" (fun rng r -> Some { r with S.vc = nudge rng r.S.vc });
        mut_rep "nudge_vw" (fun rng r -> Some { r with S.vw = nudge rng r.S.vw });
        mut_rep "perturb_sc1_poly" (fun rng r ->
            Option.map (fun sc -> { r with S.sc1 = sc }) (perturb_poly rng r.S.sc1));
        mut_rep "perturb_sc2_poly" (fun rng r ->
            Option.map (fun sc -> { r with S.sc2 = sc }) (perturb_poly rng r.S.sc2));
        mut_rep "swap_sc1_rounds" (fun rng r ->
            let rp = Array.copy r.S.sc1.Sumcheck.round_polys in
            let n = Array.length rp in
            if n < 2 then None
            else begin
              let i = Rng.int rng n in
              let j = (i + 1 + Rng.int rng (n - 1)) mod n in
              if rp.(i) = rp.(j) then None
              else begin
                let t = rp.(i) in
                rp.(i) <- rp.(j);
                rp.(j) <- t;
                Some { r with S.sc1 = { Sumcheck.round_polys = rp } }
              end
            end);
        mut_rep "swap_sc1_sc2" (fun _rng r ->
            if r.S.sc1 = r.S.sc2 then None
            else Some { r with S.sc1 = r.S.sc2; sc2 = r.S.sc1 });
        mut_rep "drop_sc1_round" (fun _rng r ->
            let rp = r.S.sc1.Sumcheck.round_polys in
            let n = Array.length rp in
            if n = 0 then None
            else Some { r with S.sc1 = { Sumcheck.round_polys = Array.sub rp 0 (n - 1) } });
        ( "dup_rep",
          fun _rng ->
            let p = decode () in
            let reps = p.S.reps in
            if Array.length reps = 0 then None
            else reser { p with S.reps = Array.append reps [| reps.(0) |] } );
      ]
    in
    {
      Fuzz.name = S.P.name;
      honest;
      verify;
      structured = generic @ extra ~decode ~reser;
    }
end

(* --- Orion-specific structural corruption --- *)

let orion () =
  let module B = Build (Spartan) in
  B.target ()
    ~extra:(fun ~decode ~reser ->
      let with_commitment f rng =
        let p = decode () in
        match f rng p.Spartan.w_commitment with
        | None -> None
        | Some cm -> reser { p with Spartan.w_commitment = cm }
      in
      let with_open f rng =
        let p = decode () in
        let reps = Array.copy p.Spartan.reps in
        if Array.length reps = 0 then None
        else begin
          let r = reps.(0) in
          match f rng r.Spartan.w_open with
          | None -> None
          | Some wo ->
            reps.(0) <- { r with Spartan.w_open = wo };
            reser { p with Spartan.reps = reps }
        end
      in
      [
        ( "tamper_commit_root",
          with_commitment (fun rng cm ->
              Some { cm with O.root = tamper_digest rng cm.O.root }) );
        ( "bump_num_vars",
          with_commitment (fun _rng cm -> Some { cm with O.num_vars = cm.O.num_vars + 1 })
        );
        ( "edit_u",
          with_open (fun rng wo ->
              if Fv.length wo.O.u = 0 then None
              else begin
                let u = Fv.copy wo.O.u in
                let i = Rng.int rng (Fv.length u) in
                Fv.set u i (nudge rng (Fv.get u i));
                Some { wo with O.u }
              end) );
        ( "edit_proximity",
          with_open (fun rng wo ->
              if Array.length wo.O.proximity = 0 then None
              else begin
                let prox = Array.map Fv.copy wo.O.proximity in
                let i = Rng.int rng (Array.length prox) in
                if Fv.length prox.(i) = 0 then None
                else begin
                  let j = Rng.int rng (Fv.length prox.(i)) in
                  Fv.set prox.(i) j (nudge rng (Fv.get prox.(i) j));
                  Some { wo with O.proximity = prox }
                end
              end) );
        ( "tamper_column_index",
          with_open (fun rng wo ->
              if O.num_openings wo = 0 then None
              else begin
                let col_index = Array.copy wo.O.col_index in
                let k = Rng.int rng (Array.length col_index) in
                col_index.(k) <- col_index.(k) + 1;
                Some { wo with O.col_index }
              end) );
        ( "edit_column_value",
          with_open (fun rng wo ->
              if O.num_openings wo = 0 then None
              else begin
                let k = Rng.int rng (O.num_openings wo) in
                let h = wo.O.col_height.(k) in
                if h = 0 then None
                else begin
                  let col_values = Fv.copy wo.O.col_values in
                  let i = column_start wo.O.col_height k + Rng.int rng h in
                  Fv.set col_values i (nudge rng (Fv.get col_values i));
                  Some { wo with O.col_values }
                end
              end) );
        ( "tamper_column_path",
          with_open (fun rng wo ->
              if O.num_openings wo = 0 then None
              else begin
                let k = Rng.int rng (O.num_openings wo) in
                let l = wo.O.path_len.(k) in
                if l = 0 then None
                else begin
                  let paths = Fv.copy wo.O.paths in
                  let d = column_start wo.O.path_len k + Rng.int rng l in
                  Keccak.set_digest paths d (tamper_digest rng (Keccak.digest_at paths d));
                  Some { wo with O.paths }
                end
              end) );
      ])

(* --- FRI-specific structural corruption --- *)

let fri () =
  let module B = Build (Spartan_fri) in
  B.target ()
    ~extra:(fun ~decode ~reser ->
      let with_commitment f rng =
        let p = decode () in
        match f rng p.Spartan_fri.w_commitment with
        | None -> None
        | Some cm -> reser { p with Spartan_fri.w_commitment = cm }
      in
      let with_open f rng =
        let p = decode () in
        let reps = Array.copy p.Spartan_fri.reps in
        if Array.length reps = 0 then None
        else begin
          let r = reps.(0) in
          match f rng r.Spartan_fri.w_open with
          | None -> None
          | Some wo ->
            reps.(0) <- { r with Spartan_fri.w_open = wo };
            reser { p with Spartan_fri.reps = reps }
        end
      in
      (* A random query, then a random layer it opens: [f] gets the opened
         layer's index [k] into the per-layer arrays. *)
      let with_query_layer f =
        with_open (fun rng wo ->
            if Fp.num_queries wo = 0 then None
            else begin
              let q = Rng.int rng (Fp.num_queries wo) in
              let layer_count = wo.Fp.queries.Fri.layer_count in
              let n = layer_count.(q) in
              if n = 0 then None
              else f rng wo (column_start layer_count q + Rng.int rng n)
            end)
      in
      [
        ( "tamper_commit_root",
          with_commitment (fun rng cm ->
              Some { cm with Fp.root = tamper_digest rng cm.Fp.root }) );
        ( "bump_num_vars",
          with_commitment (fun _rng cm ->
              Some { cm with Fp.num_vars = cm.Fp.num_vars + 1 }) );
        ( "tamper_layer_root",
          with_open (fun rng wo ->
              if Array.length wo.Fp.layer_roots = 0 then None
              else begin
                let roots = Array.copy wo.Fp.layer_roots in
                let k = Rng.int rng (Array.length roots) in
                roots.(k) <- tamper_digest rng roots.(k);
                Some { wo with Fp.layer_roots = roots }
              end) );
        ( "nudge_final_constant",
          with_open (fun rng wo ->
              Some { wo with Fp.final_constant = nudge rng wo.Fp.final_constant }) );
        ( "perturb_fri_round_poly",
          with_open (fun rng wo ->
              let rp = wo.Fp.sumcheck.Sumcheck.round_polys in
              if Array.length rp = 0 then None
              else begin
                let rp = Array.map Array.copy rp in
                let i = Rng.int rng (Array.length rp) in
                if Array.length rp.(i) = 0 then None
                else begin
                  let j = Rng.int rng (Array.length rp.(i)) in
                  rp.(i).(j) <- nudge rng rp.(i).(j);
                  Some { wo with Fp.sumcheck = { Sumcheck.round_polys = rp } }
                end
              end) );
        ( "tamper_query_pos",
          with_open (fun rng wo ->
              if Fp.num_queries wo = 0 then None
              else begin
                let positions = Array.copy wo.Fp.queries.Fri.positions in
                let k = Rng.int rng (Array.length positions) in
                positions.(k) <- positions.(k) lxor 1;
                Some { wo with Fp.queries = { wo.Fp.queries with Fri.positions } }
              end) );
        ( "nudge_query_leaf",
          with_query_layer (fun rng wo k ->
              let pairs = Fv.copy wo.Fp.queries.Fri.pairs in
              let e = (2 * k) + if Rng.bool rng then 0 else 1 in
              Fv.set pairs e (nudge rng (Fv.get pairs e));
              Some { wo with Fp.queries = { wo.Fp.queries with Fri.pairs } }) );
        ( "tamper_query_path",
          with_query_layer (fun rng wo k ->
              let q = wo.Fp.queries in
              let len = q.Fri.path_len.(k) in
              if len = 0 then None
              else begin
                let paths = Fv.copy q.Fri.paths in
                let d = column_start q.Fri.path_len k + Rng.int rng len in
                Keccak.set_digest paths d (tamper_digest rng (Keccak.digest_at paths d));
                Some { wo with Fp.queries = { q with Fri.paths } }
              end) );
        (* One digest fewer: the verifier's path-length check. *)
        ( "truncate_query_path",
          with_query_layer (fun rng wo k ->
              let q = wo.Fp.queries in
              let len = q.Fri.path_len.(k) in
              if len = 0 then None
              else begin
                let d = column_start q.Fri.path_len k + Rng.int rng len in
                let lanes = Fv.length q.Fri.paths in
                let paths = Fv.create (lanes - 4) in
                Fv.blit ~src:q.Fri.paths ~src_pos:0 ~dst:paths ~dst_pos:0 ~len:(4 * d);
                Fv.blit ~src:q.Fri.paths ~src_pos:(4 * (d + 1)) ~dst:paths ~dst_pos:(4 * d)
                  ~len:(lanes - (4 * (d + 1)));
                let path_len = Array.copy q.Fri.path_len in
                path_len.(k) <- len - 1;
                Some { wo with Fp.queries = { q with Fri.paths; path_len } }
              end) );
      ])

let all () = [ orion (); fri () ]

let by_name name =
  match name with
  | "orion" -> Some (orion ())
  | "fri" -> Some (fri ())
  | _ -> None
