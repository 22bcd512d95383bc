type t = { data : string; mutable pos : int }

let of_string data = { data; pos = 0 }

let recv t n =
  if n <= 0 then ""
  else begin
    Effect.record (Effect.reads Effect.Socket_stream);
    let n = Fault.Hooks.recv_request ~requested:n ~consumed:t.pos in
    let available = String.length t.data - t.pos in
    let take = min n available in
    if take = 0 then ""
    else begin
      let chunk = String.sub t.data t.pos take in
      t.pos <- t.pos + take;
      chunk
    end
  end

let remaining t = String.length t.data - t.pos

let consumed t = t.pos
