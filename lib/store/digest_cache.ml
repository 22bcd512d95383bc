type 'k slot = { key : 'k; digest : string }

type 'k t = {
  same : 'k -> 'k -> bool;
  lock : Mutex.t;
  ring : 'k slot option array;
  mutable next : int;  (* next insertion slot *)
  mutable evictions : int;
}

type stats = { entries : int; capacity : int; evictions : int }

let capacity = 64

let create ?(same = ( == )) () =
  { same; lock = Mutex.create (); ring = Array.make capacity None; next = 0;
    evictions = 0 }

(* under the lock; [same] never raises, so the lock is always released *)
let find_locked t k =
  let rec go i =
    if i = capacity then None
    else
      match Array.unsafe_get t.ring i with
      | Some s when t.same s.key k -> Some s.digest
      | _ -> go (i + 1)
  in
  go 0

let find t k digest =
  Mutex.lock t.lock;
  let hit = find_locked t k in
  Mutex.unlock t.lock;
  match hit with
  | Some d -> d
  | None ->
      let d = digest k in
      Mutex.lock t.lock;
      (* a duplicate insert under a race is harmless (same digest) *)
      if Option.is_none (find_locked t k) then begin
        let i = t.next in
        if Option.is_some t.ring.(i) then t.evictions <- t.evictions + 1;
        t.ring.(i) <- Some { key = k; digest = d };
        t.next <- (i + 1) mod capacity
      end;
      Mutex.unlock t.lock;
      d

let stats t =
  Mutex.protect t.lock (fun () ->
      let entries =
        Array.fold_left (fun acc s -> if Option.is_some s then acc + 1 else acc) 0 t.ring
      in
      { entries; capacity; evictions = t.evictions })

let marshal_hex v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.Closures ]))
