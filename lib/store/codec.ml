let to_payload ~tag v =
  if String.contains tag '\n' then invalid_arg "Store.Codec: tag has newline";
  String.concat "\n" [ tag; Marshal.to_string v [ Marshal.Closures ] ]

let of_payload ~tag payload =
  match String.index_opt payload '\n' with
  | None -> None
  | Some nl ->
      if String.sub payload 0 nl <> tag then None
      else
        let body =
          String.sub payload (nl + 1) (String.length payload - nl - 1)
        in
        (* from_string re-checks the embedded code digest for closures;
           any mismatch (or truncation that survived the record
           checksum, which cannot happen, but belt and braces) lands
           here as Failure/invalid input *)
        (try Some (Marshal.from_string body 0) with _ -> None)
