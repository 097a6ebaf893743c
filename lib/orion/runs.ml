let sum = Array.fold_left ( + ) 0

let offsets lens =
  let pos = Array.make (Array.length lens) 0 in
  for k = 1 to Array.length lens - 1 do
    pos.(k) <- pos.(k - 1) + lens.(k - 1)
  done;
  pos

let select n p =
  let out = Array.make n 0 and k = ref 0 in
  for i = 0 to n - 1 do
    if p i then begin
      out.(!k) <- i;
      incr k
    end
  done;
  Array.sub out 0 !k
