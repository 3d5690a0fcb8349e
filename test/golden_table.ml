(* Written by `make golden`; see golden.ml. *)
let recorded =
  [
    ("fig4", "9d215d8effe12db02ad5b3871cbc630e");
    ("fig5", "4636cff9c826e682372023bcaa3ffe4a");
    ("fig6", "4c47d01c37ed3f8edec10d90bbbce2d8");
    ("fig7", "5f5497eceb453d4faa329a5b0c460564");
    ("fig8", "52680e508ce60926b22b1b5258270f49");
    ("fig9", "3eccc0852fc1c351f9bebce6e108a92f");
    ("overload", "3cba205ed4dc5792f88b4082eb2242b3");
    ("flash", "fbcdee827b1d47c2544e48f6e92dbbdb");
    ("crash 5 seeds", "f01f8461b3e83c90cac270a79660d3a2");
    ("crash 6 seeds publish-before-quiesce", "9291c9f000d7dca80cbd3f8b52e9986a");
    ("shard scale 0.1, 3 shards", "7a2819ec21be2bf1457e9ef0f359b1fe");
    ("spec_base seed 7", "9eb353aeb4e63774ba38587b89b06d04");
    ("spec_base seed 7 | trace export", "f7c282b4116a888b71962269ac934837");
    ("spec_base seed 7 | causal export", "4136fdd12f68be31efbcb4b681767c15");
    ("spec_base 24 clients seed 11", "144fd3f390afb85a0a40cf5b7b26e458");
    ("spec_base 24 clients seed 11 | trace export", "abfa0f02e6d48883b54f7bf4c9d5b513");
    ("open_spec + qos", "ae7c992e82beb2c45ca26d39038ba81d");
    ("open_spec + qos seed 1", "cbee644298d9e24c5d050e0d2497541d");
    ("open_spec + qos seed 2", "cb7e82e50e1680c4bd1bcfd5057a2e8b");
    ("open_spec + qos seed 3", "8836b5b308fe6800f295d7f6bed9c851");
    ("open_spec + qos + fair CP", "c0d9dfd3813d964eb55f5f68dbab1abe");
    ("two-volume seq_write", "a8bd9c421741342c4caf99f3725c7b1a");
    ("four-tenant Zipf open loop", "23c52d5fed99c7d3ba9288bd04998bd5");
    ("closed seq_write", "3bd0af82b64e77153f57ffa220309d3f");
    ("closed rand_write + think", "f565599d73e5d47ea93bb4e594f0b58d");
    ("nfs_mix", "cc534803d2b2eea40b6fc8c1941e48db");
    ("open loop + qos + watermarks + telemetry", "69bbcd73b65c895ad53fd40b81cdca2c");
    ("skewed_write on flash", "ed5d5cab65cabd8cdacb40a4c8fd6727");
    ("small_spec seed 1", "3001a0ffbd31fe60f0a43c05aace0259");
    ("small_spec seed 2", "8212315e13a049afc2d9fa3010b59927");
    ("small_spec seed 3", "a800dcf9470d06ba20c5373f4e443cc0");
    ("small_spec seed 4", "1b78b876f9dc380a5215d4eb38c823ef");
    ("small_spec seed 5", "7bd56ceab9c61a0213427d0cdc0f6b0f");
    ("wafl_sim crash --seeds 8", "2bd5bf23e294b7318bbb6e676b8be251");
    ("wafl_sim crash --flash --seeds 4", "8e624cbaa1a33bb55522a3bd152d62fe");
    ("wafl_sim shard --scale 0.25 --shards 3 --domains 2", "2013724b7241fc5001ba68b4bb01c55c");
    ("wafl_sim overload --scale 0.1", "3cba205ed4dc5792f88b4082eb2242b3");
    ("wafl_sim fig6 --scale 0.1", "4c47d01c37ed3f8edec10d90bbbce2d8");
    ("wafl_sim top --live --measure 0.5 --json", "11ae08adec1f8acf712b6030642254de");
    ("wafl_sim top --live --measure 0.5 --think 300 --cp-ms 3 --window 200 --inject-b2b --json", "976bd0fe6d5660b23a873234d6135d3a");
    ("engine schedule trace", "82a17d797daea0d13433366475153c42");
    ("waffinity grant order", "f5f0ec4ee6990d6d9f2d0c77e36229f7");
  ]
