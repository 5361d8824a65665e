let bits_per_word = Sys.int_size (* 63 on 64-bit platforms *)

type t = { mutable words : int array }

let words_for n = (n + bits_per_word - 1) / bits_per_word

let create ?(capacity = 0) () = { words = Array.make (max 1 (words_for capacity)) 0 }

let ensure s w =
  let n = Array.length s.words in
  if w >= n then begin
    let words = Array.make (max (w + 1) (2 * n)) 0 in
    Array.blit s.words 0 words 0 n;
    s.words <- words
  end

let mem s i =
  let w = i / bits_per_word in
  w < Array.length s.words
  && s.words.(w) land (1 lsl (i mod bits_per_word)) <> 0

let add s i =
  let w = i / bits_per_word in
  ensure s w;
  s.words.(w) <- s.words.(w) lor (1 lsl (i mod bits_per_word))

let singleton i =
  let s = create ~capacity:(i + 1) () in
  add s i;
  s

let remove s i =
  let w = i / bits_per_word in
  if w < Array.length s.words then
    s.words.(w) <- s.words.(w) land lnot (1 lsl (i mod bits_per_word))

(* SWAR masks, built by saturating fill so they fit OCaml's 63-bit ints
   (the 64-bit literals 0x5555… overflow the int literal range; the
   fixpoint fills every lane of whatever the native word width is). *)
let swar_fill seed shift =
  let rec go acc =
    let acc' = acc lor (acc lsl shift) in
    if acc' = acc then acc else go acc'
  in
  go seed

let m1 = swar_fill 1 2 (* 0b0101…01 *)
let m2 = swar_fill 3 4 (* 0b0011…11 *)
let m4 = swar_fill 0xF 8 (* 0x0F0F…0F *)
let h01 = swar_fill 1 8 (* 0x0101…01 *)

(* Constant-time SWAR popcount: pairwise lane sums then one multiply
   that accumulates every byte lane into the top one. The top lane of a
   63-bit word is only 7 bits wide, but the maximum count (63) still
   fits, so shifting down [bits_per_word - 7] recovers the exact sum. *)
let popcount x =
  let x = x - ((x lsr 1) land m1) in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land m4 in
  (x * h01) lsr (bits_per_word - 7)

let popcount_word = popcount

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s.words

let is_empty s = Array.for_all (fun w -> w = 0) s.words

let union_into ~dst src =
  ensure dst (Array.length src.words - 1);
  Array.iteri (fun i w -> if w <> 0 then dst.words.(i) <- dst.words.(i) lor w) src.words

let copy s = { words = Array.copy s.words }

let subset a b =
  let wa = a.words and wb = b.words in
  let na = Array.length wa and nb = Array.length wb in
  let rec from i =
    i >= na
    || (let w = wa.(i) in
        (w = 0 || (i < nb && w land lnot wb.(i) = 0)) && from (i + 1))
  in
  from 0

let equal a b = subset a b && subset b a

let each_side_has_private_bit a b = not (subset a b) && not (subset b a)

(* Lowest-set-bit iteration: O(cardinal) calls instead of O(words × w)
   bit probes. [b land (-b)] isolates the lowest set bit; its index is
   the popcount of the mask of bits below it. *)
let iter f s =
  Array.iteri
    (fun wi w ->
      if w <> 0 then begin
        let base = wi * bits_per_word in
        let w = ref w in
        while !w <> 0 do
          let b = !w land - !w in
          f (base + popcount (b - 1));
          w := !w land (!w - 1)
        done
      end)
    s.words

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let elements s = List.rev (fold (fun i acc -> i :: acc) s [])

let words s = Array.length s.words

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Format.pp_print_int)
    (elements s)
