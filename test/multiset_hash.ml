module Gf = Zk_field.Gf
module Transcript = Zk_hash.Transcript

type params = { gamma : Gf.t; delta : Gf.t }

let instantiations = 4

let params_of_transcript transcript =
  Array.init instantiations (fun _ ->
      let gamma = Transcript.challenge_gf transcript "multiset/gamma" in
      let delta = Transcript.challenge_gf transcript "multiset/delta" in
      { gamma; delta })

type t = { ms_params : params array; acc : Gf.t array }

let empty ps =
  if Array.length ps <> instantiations then invalid_arg "Multiset_hash.empty";
  { ms_params = ps; acc = Array.make instantiations Gf.one }

let add t x =
  {
    t with
    acc =
      Array.mapi (fun i a -> Gf.mul a (Gf.sub t.ms_params.(i).gamma x)) t.acc;
  }

let add_tuple t tuple =
  {
    t with
    acc =
      Array.mapi
        (fun i a ->
          let { gamma; delta } = t.ms_params.(i) in
          (* Horner-flatten the tuple with delta. *)
          let flat =
            Array.fold_right (fun v acc -> Gf.add v (Gf.mul delta acc)) tuple Gf.zero
          in
          Gf.mul a (Gf.sub gamma flat))
        t.acc;
  }

let union a b =
  if a.ms_params != b.ms_params && a.ms_params <> b.ms_params then
    invalid_arg "Multiset_hash.union: different instantiations";
  { a with acc = Array.map2 Gf.mul a.acc b.acc }

let equal a b = Array.for_all2 Gf.equal a.acc b.acc

let digest_of_list ps xs = List.fold_left add (empty ps) xs

let mults_per_element = instantiations
